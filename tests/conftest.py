import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from wsnadapt import sim

# Every property draws the same examples on every run and stores none.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
# Hypothesis also caches the constants it reads off the code under test, at
# collection and database or not; a directory removed at exit takes them.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

_CRITERIA: list[tuple[int, str, bool]] = []


def record_criterion(number: int, description: str, passed: bool) -> None:
    """Collect one acceptance-criterion verdict for the session summary."""
    _CRITERIA.append((number, description, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(_CRITERIA):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{verdict}: criterion {number:2d} - {description}")


@pytest.fixture(scope="session")
def default_scenario():
    return sim.default_scenario()


@pytest.fixture(scope="session")
def default_cov(default_scenario):
    from wsnadapt.fieldgen import build_spatial_covariance

    return build_spatial_covariance(default_scenario.layout, default_scenario.field)


@pytest.fixture
def traced_peak():
    """A function that runs ``call()`` under tracemalloc and returns its
    result and the peak of the memory traced meanwhile, in bytes; run a
    small call first, so that lazy imports do not count."""

    def peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
