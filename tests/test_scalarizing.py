import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moscal.scalarizing import (
    Scalarizer,
    ScalarizerSpec,
    WeightVector,
    as_point,
    draw_random_weight,
    generate_uniform_weights,
    granularity_for_count,
    uniform_weight_count,
)
from moscal.tspwp import ObjectiveRanges


def test_weight_vector_invariants():
    w = WeightVector((0.25, 0.75))
    assert len(w) == 2 and w[1] == 0.75
    with pytest.raises(ValueError):
        WeightVector((0.5, 0.6))
    with pytest.raises(ValueError):
        WeightVector((-0.1, 1.1))
    with pytest.raises(ValueError):
        WeightVector((1.0,))
    # within tolerance 1e-9 is accepted
    WeightVector((0.5, 0.5 + 5e-10))
    for lambdas in ((float("nan"), 1.0), (0.5, 0.5, float("nan")), (float("inf"), 0.0)):
        with pytest.raises(ValueError, match="weights must be finite"):
            WeightVector(lambdas)


def test_as_point_validation():
    assert as_point([1, 2.5]) == (1.0, 2.5)
    with pytest.raises(ValueError):
        as_point([1.0])
    with pytest.raises(ValueError):
        as_point([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_point([1.0, float("inf")])


def test_uniform_weights_j2_h4_exact_enumeration():
    vs = [w.lambdas for w in generate_uniform_weights(2, 4)]
    assert vs == [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0)]


def test_uniform_weight_counts():
    # closed-form C(H+J-1, J-1), checked against the explicit enumeration
    for j, h in [(2, 1), (2, 7), (3, 4), (3, 9), (4, 3)]:
        assert len(generate_uniform_weights(j, h)) == uniform_weight_count(j, h) == math.comb(h + j - 1, j - 1)
    # the two counts used by the experiment presets
    assert uniform_weight_count(2, 100) == 101
    assert uniform_weight_count(3, 81) == 3403


def test_uniform_weights_lexicographic_and_valid():
    vs = generate_uniform_weights(3, 5)
    tuples = [w.lambdas for w in vs]
    assert tuples == sorted(tuples)
    assert len(set(tuples)) == len(tuples)
    for w in vs:
        assert abs(sum(w.lambdas) - 1.0) <= 1e-9


def test_granularity_for_count():
    assert granularity_for_count(2, 101) == 100
    assert granularity_for_count(2, 301) == 300
    assert granularity_for_count(3, 3403) == 81
    with pytest.raises(ValueError):
        granularity_for_count(3, 3404)


def test_random_weights_uniform_on_simplex():
    # oracle: marginal mean of each coordinate is 1/J; P(lambda_1 > 0.5) = (1/2)^(J-1)
    rng = np.random.default_rng(7)
    draws2 = np.array([draw_random_weight(2, rng).lambdas for _ in range(100_000)])
    assert abs(draws2[:, 0].mean() - 0.5) < 0.01
    rng = np.random.default_rng(11)
    draws3 = np.array([draw_random_weight(3, rng).lambdas for _ in range(100_000)])
    frac = (draws3[:, 0] > 0.5).mean()
    assert abs(frac - 0.25) < 0.01
    assert np.all(draws3 >= 0.0)
    assert np.allclose(draws3.sum(axis=1), 1.0, atol=1e-9)


def linear(z, lam):
    return Scalarizer(lam, ScalarizerSpec("linear"))(z)


def chebycheff(z, lam, ref):
    return Scalarizer(lam, ScalarizerSpec("chebycheff"), ref)(z)


def test_linear_examples():
    assert linear((10.0, 1.0), (0.1, 0.9)) == pytest.approx(1.9)
    assert linear((4.0, 4.0, 4.0), (1 / 3, 1 / 3, 1 / 3)) == pytest.approx(4.0)


def test_chebycheff_examples():
    assert chebycheff((10.0, 1.0), (0.1, 0.9), (0.0, 0.0)) == pytest.approx(1.0)
    assert chebycheff((5.0, 5.0), (0.5, 0.5), (5.0, 5.0)) == 0.0
    # zero-weight objective contributes nothing no matter how bad it is
    assert chebycheff((1e9, 2.0), (0.0, 1.0), (0.0, 0.0)) == pytest.approx(2.0)


def test_mixed_example():
    spec = ScalarizerSpec("mixed", w_linear=0.001, w_cheby=0.999)
    z, lam = (10.0, 1.0), (0.1, 0.9)
    expected = 0.001 * 1.9 + 0.999 * 1.0
    assert Scalarizer(lam, spec, (0.0, 0.0))(z) == pytest.approx(expected)


def test_mixed_extremes_bit_match_pure_evaluators():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = tuple(rng.uniform(-5, 20, size=3))
        lam = draw_random_weight(3, rng)
        ref = tuple(rng.uniform(-5, 5, size=3))
        lin_spec = ScalarizerSpec("mixed", w_linear=1.0, w_cheby=0.0)
        che_spec = ScalarizerSpec("mixed", w_linear=0.0, w_cheby=1.0)
        assert Scalarizer(lam, lin_spec, ref)(z) == linear(z, lam)
        assert Scalarizer(lam, che_spec, ref)(z) == chebycheff(z, lam, ref)


def test_scalarizer_spec_validation():
    with pytest.raises(ValueError):
        ScalarizerSpec("nonsense")
    with pytest.raises(ValueError):
        ScalarizerSpec("mixed", w_linear=0.7, w_cheby=0.7)
    # mix weights belong to the mixed kind; the others keep their fixed pair
    for kind, mix in (("linear", dict(w_linear=0.3)), ("linear", dict(w_cheby=0.5)),
                      ("chebycheff", dict(w_cheby=0.2)), ("chebycheff", dict(w_linear=0.5, w_cheby=0.5))):
        with pytest.raises(ValueError, match="fixed mix weights"):
            ScalarizerSpec(kind, **mix)
    nan, inf = float("nan"), float("inf")
    for kind, mix in (("mixed", dict(w_linear=nan)), ("mixed", dict(w_cheby=nan)),
                      ("mixed", dict(w_linear=inf)), ("mixed", dict(w_linear=0.5, w_cheby=nan)),
                      ("linear", dict(w_linear=nan))):
        with pytest.raises(ValueError, match="mix weights must be finite"):
            ScalarizerSpec(kind, **mix)
    assert ScalarizerSpec("linear", w_linear=1.0) == ScalarizerSpec("linear")
    assert ScalarizerSpec("chebycheff", w_linear=0.0, w_cheby=1.0) == ScalarizerSpec("chebycheff")
    with pytest.raises(ValueError):
        Scalarizer((0.5, 0.5), ScalarizerSpec("chebycheff"))  # missing reference
    with pytest.raises(ValueError):
        Scalarizer((0.5, 0.5), ScalarizerSpec("chebycheff"), (0.0, 0.0, 0.0))
    s = Scalarizer((0.5, 0.5), ScalarizerSpec("linear"))
    with pytest.raises(ValueError):
        s((1.0, 2.0, 3.0))


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_scalarizer_batch_matches_scalar_calls():
    # a point gets the same bits whatever array holds it: C- or F-ordered
    # (N, J), an (a, b, J) block or its raveled rows, alone as a 1-D point,
    # or as a tuple through __call__; zero weights and reference coordinates
    # on the lattice make chebycheff ties between -0.0 and 0.0 terms
    rng = np.random.default_rng(5)
    specs = (
        ScalarizerSpec("linear"),
        ScalarizerSpec("chebycheff"),
        ScalarizerSpec("mixed", w_linear=0.001, w_cheby=0.999),
        ScalarizerSpec("mixed", w_linear=1.0, w_cheby=0.0),
        ScalarizerSpec("mixed", w_linear=0.0, w_cheby=1.0),
    )
    signed_zero_ties = 0
    for case in range(60):
        j = 2 + case % 2
        spec = specs[case % len(specs)]
        lam = rng.dirichlet(np.ones(j))
        if case % 3 == 0:
            lam[0], lam[1] = 0.0, lam[0] + lam[1]  # -0.0 terms where z_0 < ref_0
        ref = np.round(rng.uniform(-5, 5, size=j))
        pts = np.round(rng.uniform(-10, 10, size=(6, 4, j)) * 10.0 ** int(rng.integers(0, 6)), case % 3)
        pts[::2, :, 1:] = ref[1:]  # 0.0 terms: ties with the -0.0 ones
        pts[:, 1::2, 0] = ref[0] - 1.0
        lows, spans = rng.uniform(-3, 0, size=j), rng.uniform(1, 4, size=j)
        transform = (lambda z, lows=lows, spans=spans: (z - lows) / spans) if case % 4 >= 2 else None
        s = Scalarizer(tuple(lam), spec, tuple(ref), transform=transform)
        block = s.value(pts)
        assert block.shape == (6, 4)
        flat = pts.reshape(-1, j)
        batch = s.value(flat)
        assert bits(batch) == bits(block.ravel()), case
        assert bits(s.value(np.asfortranarray(flat))) == bits(batch), case
        for row, val in zip(flat, batch):
            assert bits(s.value(row)) == bits(val), case
            assert bits(s(tuple(row))) == bits(val), case
            assert bits(s(row)) == bits(val), case
        if spec.kind != "linear" and transform is None:
            terms = s.weights * (flat - ref)
            tied = (terms == terms.max(axis=1, keepdims=True)).sum(axis=1) > 1
            signed_zero_ties += int((tied & (terms.max(axis=1) == 0.0)).sum())
    assert signed_zero_ties > 0


def frozen_call(s, z):
    """`Scalarizer.__call__` as it was written before it ran the shared
    terms: the kinds a second time on Python floats, with the tie and nan
    rules of `np.maximum` by hand.  A transform maps the point first."""
    if s.transform is None:
        z = [float(v) for v in z]
    else:
        z = s.transform(np.asarray(z, dtype=float)).tolist()
    w = s.weights.tolist()
    kind = s.spec.kind
    if kind != "chebycheff":
        lin = z[0] * w[0]
        for j in range(1, len(w)):
            lin = lin + z[j] * w[j]
        if kind == "linear" or s.spec.w_cheby == 0.0:
            return lin
    ref = s.reference.tolist()
    cheby = w[0] * (z[0] - ref[0])
    for j in range(1, len(w)):
        term = w[j] * (z[j] - ref[j])
        if term >= cheby or term != term:
            cheby = term
    if kind == "chebycheff" or s.spec.w_linear == 0.0:
        return cheby
    return s.spec.w_linear * lin + s.spec.w_cheby * cheby


def test_call_bit_matches_the_frozen_python_float_path():
    # __call__ and score run the terms that score arrays on the point's
    # components; they must give the bits of the Python-float copy they
    # replaced: every kind and mix share, J = 2 and 3, with and without a
    # transform, on points around the reference (0.0 and -0.0 chebycheff
    # terms that tie), with a nan in each position, and as int and float
    # tuples and arrays
    specs = (
        ScalarizerSpec("linear"),
        ScalarizerSpec("chebycheff"),
        ScalarizerSpec("mixed", w_linear=0.0),
        ScalarizerSpec("mixed", w_linear=0.5),
        ScalarizerSpec("mixed", w_linear=1.0),
    )
    rng = np.random.default_rng(43)
    signed_zero_ties = nans = 0
    seen = set()
    for j, spec, normalized in itertools.product((2, 3), specs, (False, True)):
        for lam in generate_uniform_weights(j, 4):
            ref = tuple(float(v) for v in rng.choice([-1.0, 0.0, 0.5], size=j))
            lows = rng.integers(-3, 1, size=j).astype(float)
            ranges = ObjectiveRanges(tuple(lows.tolist()), tuple((lows + 4.0).tolist()))
            s = Scalarizer(lam, spec, ref, ranges.normalize if normalized else None)
            # around the reference, in the space the terms see
            grid = [tuple(r + d for r, d in zip(ref, step)) for step in itertools.product((-1.0, 0.0, 1.0), repeat=j)]
            if normalized:
                grid = [tuple((lows + 4.0 * np.asarray(z)).tolist()) for z in grid]
            points = []
            for z in grid:
                points += [z, np.asarray(z)]
                if all(v.is_integer() for v in z):
                    points += [tuple(int(v) for v in z), np.asarray(z, dtype=np.int64)]
                for pos in range(j):
                    points.append(z[:pos] + (math.nan,) + z[pos + 1:])
            for z in points:
                got, want = s(z), frozen_call(s, z)
                assert type(got) is float
                assert bits(got) == bits(want), (spec, lam, ref, normalized, z)
                # the single-point path that 2-opt rescores each move with
                scored = s.score(z)
                assert type(scored) is float
                assert bits(scored) == bits(want), ("score", spec, lam, ref, normalized, z)
                nans += math.isnan(want)
                seen.add((type(z), np.asarray(z).dtype.kind))
            if spec.kind == "chebycheff" and not normalized:
                terms = s.weights * (np.asarray(grid) - ref)
                tied = (terms == terms.max(axis=1, keepdims=True)).sum(axis=1) > 1
                signed_zero_ties += int((tied & (terms.max(axis=1) == 0.0) & np.signbit(terms).any(axis=1)).sum())
    assert signed_zero_ties > 0 and nans > 0
    assert {(tuple, "f"), (tuple, "i"), (np.ndarray, "f"), (np.ndarray, "i")} <= seen


def test_scalarizer_call_propagates_nan_like_value():
    for spec, ref in ((ScalarizerSpec("linear"), None), (ScalarizerSpec("chebycheff"), (0.0, 0.0, 0.0)),
                      (ScalarizerSpec("mixed", w_linear=0.5), (0.0, 0.0, 0.0))):
        s = Scalarizer((0.2, 0.3, 0.5), spec, ref)
        for pos in range(3):
            z = [1.0, 2.0, 3.0]
            z[pos] = float("nan")
            assert math.isnan(s(z)) and math.isnan(float(s.value(np.asarray(z))))


def test_scalarizer_rejects_points_of_the_wrong_dimension():
    for spec, ref in ((ScalarizerSpec("linear"), None), (ScalarizerSpec("chebycheff"), (0.0, 0.0))):
        s = Scalarizer((0.5, 0.5), spec, ref)
        for z in ((1.0,), (1.0, 2.0, 3.0), np.zeros(3)):
            with pytest.raises(ValueError, match="point dimension"):
                s(z)
            with pytest.raises(ValueError, match="point dimension"):
                s.value(np.asarray(z, dtype=float))


def test_scalarizer_transform_applies_before_scalarizing():
    lows = np.array([10.0, -4.0])
    spans = np.array([5.0, 2.0])
    s = Scalarizer(
        (0.5, 0.5),
        ScalarizerSpec("chebycheff"),
        (0.0, 0.0),
        transform=lambda z: (z - lows) / spans,
    )
    assert s((15.0, -2.0)) == pytest.approx(0.5)
    assert not s.is_plain_linear


def test_chebycheff_bit_matches_broadcast_max():
    # value takes the max one objective at a time; it must equal numpy's
    # broadcast-and-reduce form bit for bit, signed zeros included
    rng = np.random.default_rng(8)
    for case in range(120):
        j = int(rng.integers(2, 5))
        shape = tuple(int(v) for v in rng.integers(1, 20, size=case % 3)) + (j,)
        z = np.round(rng.normal(size=shape) * 10.0 ** int(rng.integers(-3, 8)), case % 4)
        ref = tuple(float(v) for v in rng.normal(size=j))
        lam = rng.dirichlet(np.ones(j))
        if case % 5 == 0:
            lam[0], lam[1] = 0.0, lam[0] + lam[1]  # zero weights give -0.0 terms
            z[..., 0] = -abs(z[..., 0])
        s = Scalarizer(tuple(lam), ScalarizerSpec("chebycheff"), ref)
        expected = (s.weights * (z - np.asarray(ref))).max(axis=-1)
        assert np.asarray(s.value(z)).tobytes() == np.asarray(expected).tobytes(), case


@st.composite
def weight_params(draw):
    j = draw(st.integers(min_value=2, max_value=4))
    h = draw(st.integers(min_value=1, max_value=12))
    return j, h


@given(weight_params())
@settings(max_examples=60, deadline=None)
def test_uniform_weight_properties(params):
    j, h = params
    vs = generate_uniform_weights(j, h)
    assert len(vs) == uniform_weight_count(j, h)
    tuples = [w.lambdas for w in vs]
    assert tuples == sorted(tuples)
    # the unit vectors are always on the lattice
    for unit in np.eye(j):
        assert tuple(unit) in tuples


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_chebycheff_dominance_monotone(z, seed):
    rng = np.random.default_rng(seed)
    j = len(z)
    lam = draw_random_weight(j, rng)
    ref = tuple(rng.uniform(-50, 50, size=j))
    z = tuple(z)
    better = tuple(v - rng.uniform(0, 10) for v in z)
    assert chebycheff(better, lam, ref) <= chebycheff(z, lam, ref) + 1e-12
    assert linear(better, lam) <= linear(z, lam) + 1e-12


@st.composite
def raised_points(draw):
    j = draw(st.integers(min_value=2, max_value=3))
    z = draw(st.lists(st.integers(min_value=-2**50, max_value=2**50), min_size=j, max_size=j))
    axis = draw(st.integers(min_value=0, max_value=j - 1))
    step = draw(st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2**50)))
    return z, axis, step


@given(raised_points(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_value_never_falls_when_a_coordinate_rises(raised, seed):
    # local searches skip neighbours on this property, so it must hold in
    # floats, compared exactly: raising one integer coordinate by an integer
    # >= 0 never lowers `value` or `__call__`, for every kind, mix shares
    # of 0 included, with and without range normalization
    z, axis, step = raised
    rng = np.random.default_rng(seed)
    j = len(z)
    lam = rng.dirichlet(np.ones(j))
    if seed % 3 == 0:
        lam[seed % j] = 0.0
        lam /= lam.sum()
    ref = tuple(float(v) for v in rng.integers(-2**20, 2**20, size=j))
    lows = rng.uniform(-2**30, 0, size=j)
    ranges = ObjectiveRanges(tuple(lows.tolist()), tuple((lows + rng.uniform(1e-3, 2**31, size=j)).tolist()))
    share = float(rng.random())
    specs = (
        ScalarizerSpec("linear"),
        ScalarizerSpec("chebycheff"),
        ScalarizerSpec("mixed"),
        ScalarizerSpec("mixed", w_linear=share),
        ScalarizerSpec("mixed", w_linear=0.0),
        ScalarizerSpec("mixed", w_linear=1.0),
    )
    low = np.array(z, dtype=float)
    high = low.copy()
    high[axis] += step
    for spec in specs:
        for transform in (None, ranges.normalize):
            s = Scalarizer(tuple(lam), spec, ref, transform=transform)
            assert s.value(low) <= s.value(high), (spec, transform)
            assert s(low) <= s(high), (spec, transform)
            both = s.value(np.stack([low, high]))
            assert both[0] <= both[1], (spec, transform)


@st.composite
def stacked_points(draw):
    j = draw(st.integers(min_value=2, max_value=3))
    rows = draw(st.integers(min_value=1, max_value=6))
    coordinate = st.integers(min_value=-2**40, max_value=2**40)
    z = draw(st.lists(st.lists(coordinate, min_size=j, max_size=j), min_size=rows, max_size=rows))
    return np.array(z, dtype=float)


@given(stacked_points(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_stacked_weights_score_each_row_as_its_own_scalarizer(z, seed):
    # moead_update scores a scope with one scalarizer over its stacked
    # weights: row r must have the float bytes of a scalarizer bound to
    # weight r alone, through `value` and `__call__`, for every kind, with
    # and without range normalization, on one point per row and on a single
    # point broadcast to every row
    rng = np.random.default_rng(seed)
    rows, j = z.shape
    weights = [draw_random_weight(j, rng) for _ in range(rows)]
    if seed % 3 == 0:  # lattice weights with zero components, as in the engine
        lattice = generate_uniform_weights(j, 4)
        weights = [lattice[i] for i in rng.integers(len(lattice), size=rows)]
    ref = tuple(float(v) for v in z.min(axis=0) - rng.integers(0, 3, size=j))
    lows = z.min(axis=0) - rng.uniform(0, 10, size=j)
    ranges = ObjectiveRanges(tuple(lows.tolist()), tuple((z.max(axis=0) + rng.uniform(1, 10, size=j)).tolist()))
    specs = (
        ScalarizerSpec("linear"),
        ScalarizerSpec("chebycheff"),
        ScalarizerSpec("mixed", w_linear=float(rng.random())),
        ScalarizerSpec("mixed", w_linear=0.0),
        ScalarizerSpec("mixed", w_linear=1.0),
    )
    for spec in specs:
        for transform in (None, ranges.normalize):
            stacked = Scalarizer(weights, spec, ref, transform)
            per_row, broadcast = stacked.value(z), stacked.value(z[0])
            assert per_row.shape == broadcast.shape == (rows,)
            for r, w in enumerate(weights):
                single = Scalarizer(w, spec, ref, transform)
                assert bits(per_row[r]) == bits(single.value(z[r])) == bits(single(z[r])), (spec, r)
                assert bits(broadcast[r]) == bits(single(z[0])), (spec, r)


def test_stacked_weights_must_agree_on_dimension():
    with pytest.raises(ValueError, match="stacked weight vectors disagree on dimension"):
        Scalarizer([WeightVector((0.5, 0.5)), WeightVector((0.2, 0.3, 0.5))], ScalarizerSpec("linear"))
    with pytest.raises(ValueError, match="reference point and weights disagree on dimension"):
        Scalarizer([WeightVector((0.5, 0.5))] * 2, ScalarizerSpec("chebycheff"), (0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "weights, shape",
    [
        (np.array([[0.5, 0.5], [0.2, 0.8]]), "(2,)"),
        ([[0.5, 0.5]], "(2,)"),
        ((0.5, np.array([0.5])), "(1,)"),
    ],
    ids=["array-2d", "nested-list", "nested-entry"],
)
def test_scalarizer_rejects_nested_weights_by_the_accepted_forms(weights, shape):
    # these failed inside float(): "only 0-dimensional arrays can be converted
    # to Python scalars" or "float() argument must be ... not 'list'"
    accepted = "one weight vector (a WeightVector or a flat sequence of numbers) or a sequence of WeightVectors"
    with pytest.raises(ValueError, match=re.escape(f"weights must be {accepted}; got an entry of shape {shape}")):
        Scalarizer(weights, ScalarizerSpec("linear"))
    assert Scalarizer(np.array([0.5, 0.5]), ScalarizerSpec("linear"))((2.0, 4.0)) == 3.0


def test_value_columns_bit_match_value_of_the_stacked_array():
    # value_columns runs the kind's terms on the columns themselves, or
    # stacks them for a transform; each point must get the bytes of `value`
    # of the stacked (..., J) float array: int, float and broadcast
    # Python-float columns, single and stacked weights, every kind and mix
    # share, with and without range normalization.  Zero weights and -0.0
    # coordinates make -0.0 values.
    rng = np.random.default_rng(29)
    lattice_values = np.array([-0.0, 0.0, -1.0, -2.5, 0.5, 3.0, 7.0])
    specs = (
        ScalarizerSpec("linear"),
        ScalarizerSpec("chebycheff"),
        ScalarizerSpec("mixed", w_linear=0.0),
        ScalarizerSpec("mixed", w_linear=0.5),
        ScalarizerSpec("mixed", w_linear=1.0),
    )
    seen = set()
    negative_zeros = 0
    for case in range(240):
        j = 2 + case % 2
        spec = specs[(case // 2) % len(specs)]
        stacked = case % 3 == 2
        if stacked:
            weights = generate_uniform_weights(j, 2)
            shapes = [(3, len(weights)), (len(weights),), (1, len(weights)), ()]
        else:
            lattice = generate_uniform_weights(j, 2)
            weights = lattice[int(rng.integers(len(lattice)))]
            shapes = [(3, 1), (1, 4), (4,), (3, 4), ()]
        ref = tuple(float(v) for v in rng.choice(lattice_values, size=j))
        normalized = (case // 10) % 2 == 1
        ranges = ObjectiveRanges(tuple(rng.uniform(-4, 0, size=j).round(1).tolist()), (8.0,) * j)
        s = Scalarizer(weights, spec, ref, ranges.normalize if normalized else None)
        columns = []
        for _ in range(j):
            shape = shapes[int(rng.integers(len(shapes)))]
            form = int(rng.integers(3))
            if form == 0 or not shape:
                columns.append(float(rng.choice(lattice_values)))
                form = 0
            elif form == 1:
                columns.append(rng.integers(-3, 8, size=shape))
            else:
                columns.append(rng.choice(lattice_values, size=shape))
            seen.add(("python float", "int", "float")[form])
        z = np.stack(np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns)), axis=-1)
        expected = s.value(z)
        got = s.value_columns(*columns)
        assert np.shape(got) == expected.shape, case
        assert bits(got) == bits(expected), case
        negative_zeros += int((np.signbit(expected) & (expected == 0.0)).sum())
        seen.add((spec.kind, spec.w_linear, stacked, normalized, j))
    assert {"python float", "int", "float"} <= seen
    assert all((spec.kind, spec.w_linear, stacked, normalized, j) in seen
               for spec in specs for stacked in (False, True) for normalized in (False, True) for j in (2, 3))
    assert negative_zeros > 0
