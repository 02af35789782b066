from concurrent.futures import Future

import pytest

from gapcraft import harness


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for ``harness.ProcessPoolExecutor``: records the
    ``max_workers`` of every pool opened and runs each task as it is
    submitted, so no process starts.  Returns the list of records."""
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return opened
