import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """measure(fn): the peak MiB that Python and numpy allocate while fn() runs."""
    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return measure
