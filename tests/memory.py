"""traced_peak, the one tracemalloc window of the memory tests."""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak memory tracemalloc traced during that
    call), with tracing on for the call only."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
