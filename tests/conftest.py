import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with more live threads than it started with,
    such as a direction read-ahead helper leaked on an error path."""
    before = threading.active_count()
    yield
    left = threading.enumerate()
    if len(left) > before:
        pytest.fail(f"{len(left) - before} thread(s) outlived the test: {[t.name for t in left]}")
