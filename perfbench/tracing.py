"""Span recording around calls into the program's layers.

The benchmark never edits the program: a :class:`Tracer` replaces chosen
class attributes with thin wrappers, records one span per call, and puts
the originals back on :meth:`Tracer.uninstall`.  Spans are aggregated in
memory as they close (per layer: calls, self and total seconds), because
the simulator makes millions of calls and a list of raw spans would cost
more than the work it describes.

A span's *self time* is its duration minus the time its child spans
cover, so a layer's total is the time spent in its own code, wherever it
sits in the call stack.  Stacks are per thread: the service handles each
connection on its own thread, and a span only has children on the thread
that opened it.
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

class _Totals:
    """One thread's span totals; only that thread writes them."""

    def __init__(self) -> None:
        # each frame is [layer, seconds covered by child spans]
        self.stack: List[list] = []
        #: layer -> [calls, self seconds, total seconds]
        self.layers: Dict[str, List[float]] = {}


class Tracer:
    """Per-layer spans and counts, switchable on and off while installed."""

    def __init__(self) -> None:
        self.enabled = True
        self._local = threading.local()
        self._all_states: List[_Totals] = []
        self._register_lock = threading.Lock()
        self._installed: List[Tuple[type, str, object]] = []
        #: plain counters keyed by name; per-instance keys are
        #: ``(name, id(instance))``.
        self.counts: Counter = Counter()
        self._counts_lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _thread_state(self) -> _Totals:
        state = getattr(self._local, "totals", None)
        if state is None:
            state = self._local.totals = _Totals()
            with self._register_lock:
                self._all_states.append(state)
        return state

    def _enter(self, layer: str) -> Tuple[_Totals, list]:
        state = self._thread_state()
        frame = [layer, 0.0]
        state.stack.append(frame)
        return state, frame

    def _exit(self, state: _Totals, frame: list, elapsed: float) -> None:
        state.stack.pop()
        if state.stack:
            state.stack[-1][1] += elapsed
        totals = state.layers.get(frame[0])
        if totals is None:
            totals = state.layers[frame[0]] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += elapsed - frame[1]
        totals[2] += elapsed

    def count(self, key, amount: int = 1) -> None:
        with self._counts_lock:
            self.counts[key] += amount

    # -- wrapping ----------------------------------------------------------

    def _replace(self, cls: type, name: str, wrapper) -> None:
        original = cls.__dict__[name]
        self._installed.append((cls, name, original))
        setattr(cls, name, wrapper)

    def span(self, cls: type, name: str, layer: str,
             counter: Optional[Callable] = None) -> None:
        """Record a ``layer`` span around every call of ``cls.name``.

        Generator functions get one span per step, so the consumer's work
        between two items is not charged to the producer.  ``counter``,
        if given, is called with the call's arguments while tracing is on.
        """
        original = cls.__dict__[name]
        tracer = self
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                generator = original(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        yield from generator
                        return
                    state, frame = tracer._enter(layer)
                    start = perf_counter()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(state, frame, perf_counter() - start)
                    yield item
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                if counter is not None:
                    counter(tracer, *args, **kwargs)
                state, frame = tracer._enter(layer)
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._exit(state, frame, perf_counter() - start)
        self._replace(cls, name, wrapper)

    def spans(self, cls: type, names, layer: str,
              counter: Optional[Callable] = None) -> None:
        """:meth:`span` over every name ``cls`` itself defines."""
        for name in names:
            if name in cls.__dict__:
                self.span(cls, name, layer, counter)

    def tally(self, cls: type, name: str, key: str) -> None:
        """Count calls of ``cls.name`` under ``key`` without timing them.

        The count takes no lock: use it only where one thread makes the
        calls (the simulator), since it wraps its hottest counter.
        """
        original = cls.__dict__[name]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[key] += 1
            return original(*args, **kwargs)
        self._replace(cls, name, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            cls, name, original = self._installed.pop()
            setattr(cls, name, original)

    # -- results -----------------------------------------------------------

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``self_s`` and ``total_s`` over all threads."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._register_lock:
            states = list(self._all_states)
        for state in states:
            for layer, (calls, self_s, total_s) in list(state.layers.items()):
                entry = merged.setdefault(
                    layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                entry["calls"] += calls
                entry["self_s"] += self_s
                entry["total_s"] += total_s
        return merged

    def reset(self) -> None:
        """Drop recorded spans and counts (wrappers stay installed)."""
        with self._register_lock:
            states = list(self._all_states)
        for state in states:
            state.layers.clear()
        with self._counts_lock:
            self.counts.clear()

