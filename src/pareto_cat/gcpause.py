"""A pause of CPython's cyclic garbage collector.

Parsing a large instance or building a large result document allocates
hundreds of thousands of lists, none of them garbage. Each allocation
burst triggers collections that walk every one of them, which costs as
much as the parsing itself. While the collector is paused, reference
counting still frees everything that is not part of a reference cycle;
cycles wait for the next collection after the pause.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def gc_paused():
    """Pause the cyclic collector for the block (or, as a decorator, the
    call), then restore its prior state, on or off, also on an exception."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()
