"""Outside-in layer accounting: wrap public calls, charge self time.

The benchmark measures each layer of the program from outside, by timing
calls into that layer's public functions.  :class:`Ledger` keeps a stack
of open calls; when a wrapped call returns, its duration minus the time
spent in wrapped calls nested inside it is charged to its layer as *self
time*.  Iterators returned by wrapped calls can be wrapped too, so time
spent advancing a lazy sample stream is charged to the stream's layer
and not to whoever drives it.

:func:`instrument` installs the wrappers for one run and removes them
afterwards.  A module that did ``from x import f`` holds its own binding
of ``f``, so a function is replaced in *every* ``repro`` module that
bound it, not only where it is defined.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Ledger", "instrument"]


class Ledger:
    """Self time and call counts per layer, from nested wrapped calls."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []

    def _close(self, layer: str, frame: list[float], elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        self.calls[layer] += 1
        if stack:
            stack[-1][0] += elapsed

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one call charged to ``layer``."""
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(layer, frame, perf_counter() - start)

    def wrap(self, layer: str, fn, on_result=None):
        """``fn`` with every call charged to ``layer``.

        ``on_result(args, result)`` may replace the result (e.g. wrap a
        returned iterator) or count work; its own time is charged too.
        """
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_result is None:
                return call(layer, fn, *args, **kwargs)
            return call(layer, lambda: on_result(args, fn(*args, **kwargs)))

        return wrapper

    def iterate(self, layer: str, iterator, on_item=None):
        """Wrap ``iterator`` so each step is one call charged to ``layer``."""
        step = iterator.__next__
        call = self.call

        def generator():
            while True:
                try:
                    item = call(layer, step)
                except StopIteration:
                    return
                if on_item is not None:
                    on_item(item)
                yield item

        return generator()

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` spent inside the open call to no layer."""
        if self._stack:
            self._stack[-1][0] += seconds


@contextmanager
def instrument(patches):
    """Install ``(owner, name, replacement_factory)`` patches; undo on exit.

    ``owner`` is a class (the attribute is replaced on the class) or a
    module.  For a module, the function is replaced in every loaded
    ``repro`` module whose attribute ``name`` is the same object, so
    callers that imported it by name see the wrapper too.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, name, factory in patches:
            original = getattr(owner, name)
            replacement = factory(original)
            if isinstance(owner, type):
                # Restore by deleting an attribute the class only inherited.
                targets = [owner]
                undo.append((owner, name, owner.__dict__.get(name)))
            else:
                targets = [
                    module for mod_name, module in list(sys.modules.items())
                    if (mod_name == "repro" or mod_name.startswith("repro."))
                    and getattr(module, name, None) is original
                ]
                undo.extend((target, name, original) for target in targets)
            for target in targets:
                setattr(target, name, replacement)
        yield
    finally:
        for target, name, original in reversed(undo):
            if original is None:
                delattr(target, name)
            else:
                setattr(target, name, original)
