"""The suite's own pytest settings: a failing test is reported, not a crash."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_is_reported_as_a_failure(pytester):
    # hypothesis writes its failure report through libcst, whose import warns;
    # under filterwarnings = ["error"] that warning must not abort the session
    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(
        f"    {entry}\n" for entry in filters["filterwarnings"]))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_always_fails(x):
            assert x != x
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
