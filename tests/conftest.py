"""Fixtures shared across test modules."""

import time

import pytest

from golden import regen


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """name -> (exit code, output text, seconds) for each run in
    `golden.regen.RUNS`; every run happens at most once per session."""
    base = tmp_path_factory.mktemp("golden")
    done = {}

    def get(name):
        if name not in done:
            path = base / regen.golden_path(name).name
            t0 = time.perf_counter()
            code = regen.run(name, path)
            done[name] = (code, path.read_text(), time.perf_counter() - t0)
        return done[name]

    return get
