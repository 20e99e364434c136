"""Fixtures shared by the test modules."""

from __future__ import annotations

import tracemalloc

import pytest


@pytest.fixture
def peak_alloc():
    """measure(fn, *args) -> (fn(*args), bytes allocated at the peak of the call).

    The figure is tracemalloc's peak during the call minus the memory traced
    just before it, so arguments built beforehand do not count.
    """

    def measure(fn, *args):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - before

    return measure
