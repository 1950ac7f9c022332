"""The suite's own pytest configuration, run on a probe in a subprocess."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_reports_its_example(pytester):
    # a failing @given test imports hypothesis's patching helpers, whose
    # dependencies may warn on import; under the "error" filter that
    # warning must not end the session before the example is reported
    pytester.makepyfile(test_probe=PROBE)
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "-p", "no:cacheprovider",
                                           "test_probe.py")
    result.assert_outcomes(failed=1, passed=1)
    out = result.stdout.str() + result.stderr.str()
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
