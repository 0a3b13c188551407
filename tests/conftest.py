"""Helpers shared by the test modules."""

import sys


def clear_caches():
    """Empty every functools.cache of the qbailey modules, so that the
    next call of each memoized builder runs it.  Tests that compare a
    builder with its frozen oracle, or that watch which functions run,
    start from here: a warm cache would hide the work."""
    for name, module in list(sys.modules.items()):
        if name.startswith("qbailey."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
