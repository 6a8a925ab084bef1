"""Suite-wide fixtures.

Every test gets a throwaway sweep-cache location: CLI runs without
``--cache-dir`` use the default store (``$REPRO_CACHE_DIR``), and
nothing a test does should read from — or leak into — the developer's
real ``~/.cache/repro-sweeps``.
"""

import sys

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the tests/golden/ trace fixtures from the current "
        "engines instead of diffing against them",
    )


@pytest.fixture(autouse=True)
def _hermetic_sweep_cache(tmp_path_factory, monkeypatch):
    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("sweep-cache"))
    )
    yield
    # The robustness baselines are memoized in-process (an lru_cache):
    # drop that memo too, so no test inherits simulations another test
    # ran and each one observes the work it causes itself.
    robustness = sys.modules.get("repro.experiments.robustness")
    if robustness is not None:
        robustness._baseline_makespan.cache_clear()
