import numpy as np
import pytest

from moscal.instances import (
    ParseError,
    combine_scp3,
    euclidean_cost_matrix,
    generate_cluster_coords,
    generate_euclidean_coords,
    generate_instance,
    generate_profits,
    generate_scp,
    load_tsp_instance,
    load_tspwp_instance,
    parse_profits,
    parse_scp,
    parse_tsp_objective,
    write_profits,
    write_scp,
    write_tsp_objective,
)


def test_cost_matrix_rounding_examples():
    costs = euclidean_cost_matrix([(0.0, 0.0), (3.0, 4.0)])
    assert costs[0, 1] == 5 and costs[1, 0] == 5 and costs[0, 0] == 0
    # sqrt(2) = 1.414... rounds down to 1
    assert euclidean_cost_matrix([(0.0, 0.0), (1.0, 1.0)])[0, 1] == 1
    # 2.5 rounds half-up to 3
    assert euclidean_cost_matrix([(0.0, 0.0), (2.5, 0.0)])[0, 1] == 3


def test_tsp_objective_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    coords = rng.uniform(0, 3000, size=(30, 2))
    path = write_tsp_objective(tmp_path / "a.tsp", coords)
    back = parse_tsp_objective(path)
    assert np.array_equal(back, coords)


def test_tsp_objective_parse_errors(tmp_path):
    bad_count = tmp_path / "bad_count.tsp"
    bad_count.write_text("4\n0 0\n1 1\n2 2\n")
    with pytest.raises(ParseError, match="expected 4 coordinate lines"):
        parse_tsp_objective(bad_count)
    bad_line = tmp_path / "bad_line.tsp"
    bad_line.write_text("2\n0 0\n1 1 1\n")
    with pytest.raises(ParseError, match="bad_line.tsp:3"):
        parse_tsp_objective(bad_line)
    bad_header = tmp_path / "bad_header.tsp"
    bad_header.write_text("x\n")
    with pytest.raises(ParseError, match="city count"):
        parse_tsp_objective(bad_header)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_tsp_objective_rejects_non_finite_coordinates(tmp_path, value):
    # the third nonblank line sits on line 5, after a blank line
    path = tmp_path / "coords.tsp"
    path.write_text(f"4\n0 0\n1 1\n\n2 {value}\n3 3\n")
    with pytest.raises(ParseError, match=f"coords.tsp:5: coordinate '{value}' is not finite"):
        parse_tsp_objective(path)
    with pytest.raises(ParseError, match="coords.tsp:5"):
        load_tsp_instance([path])


def test_cost_matrix_rejects_cities_too_far_apart(tmp_path):
    # finite coordinates whose distances overflow or pass 2**53
    for far in ("1e200", "1e16"):
        path = write_tsp_objective(tmp_path / "far.tsp", [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (float(far), 3.0)])
        with pytest.raises(ParseError, match="far.tsp:1: cities lie .* apart; distances must stay below 2"):
            load_tsp_instance([path])
        with pytest.raises(ValueError, match="cities lie"):
            euclidean_cost_matrix(parse_tsp_objective(path))


def test_integers_beyond_int64_name_file_and_line(tmp_path):
    huge = "100000000000000000000"
    profits = tmp_path / "huge.profits"
    profits.write_text(f"3\n1\n\n{huge}\n2\n")
    with pytest.raises(ParseError, match=f"huge.profits:4: integer {huge} is outside the 64-bit range"):
        parse_profits(profits)
    cover = tmp_path / "huge.scp"
    cover.write_text(f"1 2 2\n3 5\n2 {huge}\n1 1\n")
    with pytest.raises(ParseError, match=f"huge.scp:3: integer {huge} is outside the 64-bit range"):
        parse_scp(cover)
    edge = tmp_path / "edge.profits"
    edge.write_text(f"2\n{2**63 - 1}\n0\n")
    assert parse_profits(edge).tolist() == [2**63 - 1, 0]


def test_scp_cost_sums_at_2_pow_53_are_rejected(tmp_path):
    # both columns are needed, so objective 1 is 2**53 + 1: a float holds 2**53
    cover = tmp_path / "big.scp"
    cover.write_text(f"2 2 2\n{2**53} 1\n1 1\n1 1\n1 2\n")
    with pytest.raises(ParseError, match="big.scp:1: the sum of objective 1's column costs is 9007199254740993"):
        parse_scp(cover)
    cover.write_text(f"2 2 2\n{2**53 - 2} 1\n1 1\n1 1\n1 2\n")
    assert parse_scp(cover).costs[0].tolist() == [2**53 - 2, 1]


def test_profits_round_trip_and_errors(tmp_path):
    rng = np.random.default_rng(2)
    profits = rng.integers(1, 101, size=25)
    path = write_profits(tmp_path / "p.profits", profits)
    assert np.array_equal(parse_profits(path), profits)
    bad = tmp_path / "bad.profits"
    bad.write_text("2\n5\nx\n")
    with pytest.raises(ParseError, match="bad.profits:3"):
        parse_profits(bad)
    negative = tmp_path / "negative.profits"
    negative.write_text("2\n5\n-2\n")
    with pytest.raises(ParseError, match="negative.profits:3: profit -2 is negative"):
        parse_profits(negative)


def test_scp_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    inst = generate_scp(15, 40, rng, density=0.15)
    path = write_scp(tmp_path / "a.scp", inst)
    back = parse_scp(path)
    assert np.array_equal(back.costs, inst.costs)
    assert np.array_equal(back.coverage, inst.coverage)


def test_scp_parse_wrapped_and_indexing(tmp_path):
    # 2 rows, 3 columns, 2 objectives; costs wrapped mid-block; 1-based indices
    path = tmp_path / "tiny.scp"
    path.write_text("2 3 2\n3 5\n7\n2 4 6\n2 1 2\n1 3\n")
    inst = parse_scp(path)
    assert inst.costs.tolist() == [[3, 5, 7], [2, 4, 6]]
    assert inst.coverage.tolist() == [[True, True, False], [False, False, True]]


def test_scp_parse_errors(tmp_path):
    truncated = tmp_path / "short.scp"
    truncated.write_text("2 3 2\n3 5 7\n2 4 6\n2 1 2\n")
    with pytest.raises(ParseError, match="unexpected end"):
        parse_scp(truncated)
    bad_col = tmp_path / "badcol.scp"
    bad_col.write_text("1 2 2\n3 5\n2 4\n1 9\n")
    with pytest.raises(ParseError, match="column index 9"):
        parse_scp(bad_col)
    trailing = tmp_path / "extra.scp"
    trailing.write_text("1 2 2\n3 5\n2 4\n1 1\n99\n")
    with pytest.raises(ParseError, match="trailing"):
        parse_scp(trailing)
    # the row line "2 1 1" declares two columns but names one
    repeated = tmp_path / "repeated.scp"
    repeated.write_text("2 2 2\n3 5\n2 4\n1 2\n2 1 1\n")
    with pytest.raises(ParseError, match="repeated.scp:5: row 2 lists column 1 twice"):
        parse_scp(repeated)
    wrapped = tmp_path / "wrapped.scp"
    wrapped.write_text("1 3 2\n3 5 7\n2 4 6\n3 2\n3\n2\n")
    with pytest.raises(ParseError, match="wrapped.scp:6: row 1 lists column 2 twice"):
        parse_scp(wrapped)
    zero = tmp_path / "zero.scp"
    zero.write_text("2 2 2\n3 5\n2 0\n1 1\n1 2\n")
    with pytest.raises(ParseError, match="zero.scp:3: objective 2 gives column 2 cost 0; costs must be strictly positive"):
        parse_scp(zero)


def test_load_tsp_instance(tmp_path):
    rng = np.random.default_rng(4)
    p1 = write_tsp_objective(tmp_path / "o1.tsp", rng.uniform(0, 100, (12, 2)))
    p2 = write_tsp_objective(tmp_path / "o2.tsp", rng.uniform(0, 100, (12, 2)))
    inst = load_tsp_instance([p1, p2])
    assert inst.n == 12 and inst.n_objectives == 2
    p3 = write_tsp_objective(tmp_path / "o3.tsp", rng.uniform(0, 100, (9, 2)))
    with pytest.raises(ValueError, match=r"disagree on city count: \S*o1\.tsp has 12, \S*o3\.tsp has 9$"):
        load_tsp_instance([p1, p3])


def test_load_tspwp_instance(tmp_path):
    rng = np.random.default_rng(5)
    cp = write_tsp_objective(tmp_path / "c.tsp", rng.uniform(0, 100, (10, 2)))
    pp = write_profits(tmp_path / "p.profits", rng.integers(1, 50, size=10))
    inst = load_tspwp_instance(cp, pp)
    assert inst.n == 10
    short = write_profits(tmp_path / "s.profits", rng.integers(1, 50, size=9))
    with pytest.raises(ValueError, match=r"s\.profits has 9 profits, which does not match the 10 cities of \S*c\.tsp$"):
        load_tspwp_instance(cp, short)


def test_generate_euclidean_bounds_and_determinism():
    a = generate_euclidean_coords(100, np.random.default_rng(7))
    b = generate_euclidean_coords(100, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert a.shape == (100, 2)
    assert (a >= 0).all() and (a <= 3000).all()


def test_generate_cluster_scatter_within_three_sigma():
    coords, labels, centers = generate_cluster_coords(300, np.random.default_rng(8))
    spread = 3000.0 / 40.0
    offsets = np.abs(coords - centers[labels])
    within = (offsets <= 3 * spread).all(axis=1).mean()
    assert within >= 0.99
    # larger draw: the statistical margin is comfortable
    big, big_labels, big_centers = generate_cluster_coords(
        3000, np.random.default_rng(9)
    )
    off = np.abs(big - big_centers[big_labels])
    assert (off <= 3 * spread).all(axis=1).mean() >= 0.99
    assert len(set(big_labels.tolist())) == 6


@pytest.mark.parametrize(
    "generate, params, message",
    [
        (generate_cluster_coords, dict(spread=float("nan")), "spread must be nonnegative and finite, got nan"),
        (generate_cluster_coords, dict(spread=float("inf")), "spread must be nonnegative and finite, got inf"),
        (generate_cluster_coords, dict(spread=-1.0), "spread must be nonnegative and finite, got -1.0"),
        (generate_euclidean_coords, dict(coord_range=float("nan")), "coord_range must be positive and finite, got nan"),
        (generate_euclidean_coords, dict(coord_range=float("inf")), "coord_range must be positive and finite, got inf"),
        (generate_cluster_coords, dict(coord_range=float("nan")), "coord_range must be positive and finite, got nan"),
        (generate_cluster_coords, dict(coord_range=float("inf")), "coord_range must be positive and finite, got inf"),
    ],
    ids=["cluster-nan-spread", "cluster-inf-spread", "cluster-negative-spread", "euclidean-nan-range",
         "euclidean-inf-range", "cluster-nan-range", "cluster-inf-range"],
)
def test_generators_reject_non_finite_range_and_bad_spread(generate, params, message):
    # a nan or inf spread gave non-finite coordinates; the others failed
    # inside numpy ("scale < 0", "high - low range exceeds valid bounds")
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate(10, np.random.default_rng(0), **params)
    # a zero spread stacks each cluster's cities on its center
    coords, labels, centers = generate_cluster_coords(10, np.random.default_rng(0), spread=0.0)
    assert np.array_equal(coords, centers[labels])


def test_generate_instance_rejects_negative_seed(tmp_path):
    with pytest.raises(ValueError, match="^seed must be >= 0, got -2$"):
        generate_instance("scp", tmp_path / "c", seed=-2, rows=6, cols=15)
    assert not list(tmp_path.iterdir())


def test_generate_profits_range():
    p = generate_profits(500, np.random.default_rng(10))
    assert p.shape == (500,)
    assert p.min() >= 1 and p.max() <= 100
    assert len(set(p.tolist())) > 50  # actually spread over the range


def test_generate_scp_coverage_floor():
    inst = generate_scp(40, 200, np.random.default_rng(11), density=0.02)
    assert inst.n_rows == 40 and inst.n_columns == 200
    assert (inst.coverage.sum(axis=1) >= 2).all()
    with pytest.raises(ValueError):
        generate_scp(10, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate_scp(10, 20, np.random.default_rng(0), density=0.0)


def test_combine_scp3():
    rng = np.random.default_rng(12)
    a = generate_scp(8, 20, rng)
    b = generate_scp(8, 20, rng)
    three = combine_scp3(a, b)
    assert three.n_objectives == 3
    assert np.array_equal(three.costs[:2], a.costs)
    assert np.array_equal(three.costs[2], b.costs[0])
    assert np.array_equal(three.coverage, a.coverage)
    short = generate_scp(8, 19, rng)
    with pytest.raises(ValueError):
        combine_scp3(a, short)


def test_generate_instance_dispatch(tmp_path):
    paths = generate_instance("euclidean", tmp_path / "eu", seed=1, n=20)
    assert [p.name for p in paths] == ["eu_obj1.tsp", "eu_obj2.tsp"]
    inst = load_tsp_instance(paths)
    assert inst.n == 20
    again = generate_instance("euclidean", tmp_path / "eu", seed=1, n=20)
    assert paths[0].read_bytes() == again[0].read_bytes()

    (prof,) = generate_instance("profits", tmp_path / "pr", seed=2, n=20)
    assert parse_profits(prof).size == 20

    (scp,) = generate_instance("scp", tmp_path / "cov", seed=3, rows=10, cols=30)
    assert parse_scp(scp).n_objectives == 2

    (scp3,) = generate_instance("scp3", tmp_path / "cov3", seed=4, rows=10, cols=30)
    assert parse_scp(scp3).n_objectives == 3

    clus = generate_instance("cluster", tmp_path / "cl", seed=5, n=60, objectives=3)
    assert len(clus) == 3

    with pytest.raises(ValueError, match="unknown instance kind"):
        generate_instance("nope", tmp_path / "x", seed=0)
