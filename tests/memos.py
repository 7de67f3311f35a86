"""Emptying the library's process-wide series memos, for tests that must
build their series from scratch."""

from jackdiv import hypergeom


def clear_memos():
    """Empty every store of :func:`jackdiv.hypergeom._memoized`."""
    for store in (hypergeom._RAYS, hypergeom._M2_TABLES):
        store.clear()
