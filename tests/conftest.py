import tracemalloc

import pytest

from beambvp.oracle import fd_solve_nonlinear


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


@pytest.fixture
def double_extrapolation():
    """reference(problem, start, grids): fd_solve_nonlinear on three doubling
    grids, started from start, extrapolated twice (h^2, then h^3) on the
    points of the coarsest one."""
    def reference(problem, start, grids):
        v1, v2, v3 = (fd_solve_nonlinear(problem.f, problem.a, n, start).values
                      for n in grids)
        r2 = (4.0 * v2[::2] - v1) / 3.0
        r3 = (4.0 * v3[::4] - v2[::2]) / 3.0
        return (8.0 * r3 - r2) / 7.0
    return reference
