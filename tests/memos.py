"""Emptying the library's process-wide series memos, for tests that must
build their series from scratch."""

from jackdiv import hypergeom


def clear_memos():
    """Empty the ray and m = 2 table caches of :mod:`jackdiv.hypergeom`."""
    hypergeom._ray.cache_clear()
    hypergeom._m2_series.cache_clear()
