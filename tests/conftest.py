"""Test-session set-up shared by every test module.

When a `@given` test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to suggest an explicit example.  That import
(through libcst and mypy_extensions) warns with a DeprecationWarning, which
the `filterwarnings = error::DeprecationWarning` of pyproject.toml turns into
an error inside pytest's report hook: the session ends in INTERNALERROR, the
remaining tests never run and the failure summary is lost.  Importing the
module once here, with that warning ignored, leaves it cached, so the
plugin's later import does not warn.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional; without it the plugin does not patch
        pass
