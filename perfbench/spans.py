"""In-memory span recorder and the wrappers that trace library layers from outside.

Tracing is done entirely from the benchmark: public (and a few module-level)
functions of :mod:`repro` are replaced by wrappers that open a span around
each call, and restored afterwards.  Two details matter when wrapping:

* a name bound by ``from module import name`` must be patched in the module
  that *uses* it (``repro.interpolation.adaptive.inverse_dft_scaled``, not
  only ``repro.interpolation.dft.inverse_dft_scaled``);
* generators (``SweepEngine.sparse_factors`` / ``dense_chunks``) do their
  work lazily, so they are timed per ``next()``, not per call.

Spans are kept in memory as ``(name, start, end, parent)`` records and reduced
at the end.  A span's *self time* is the wall time during which it is the
innermost open span; where spans of several threads are innermost at once,
the interval is shared equally between them.  On one thread this is exactly
"duration minus the part covered by child spans", and summed over every span
it equals the time covered by the root spans, so self times plus the untraced
remainder add up to the traced wall time.

Counts recorded inside forked worker processes (the supervised ensemble
workers) go to a shared counter array, because those processes' spans would
be lost with them; child-process layers are therefore reported as counts only.
"""

from __future__ import annotations

import collections
import functools
import inspect
import multiprocessing
import os
import threading
import time

#: Counters the recorder knows, in the order of the shared cross-process array.
COUNTERS = (
    "interpolation.iterations",
    "interpolation.points",
    "engine.factorizations",
    "engine.refactorizations",
    "linalg.sparse_lu_calls",
    "linalg.fresh_factorizations",
    "linalg.fill_in_entries",
    "montecarlo.program_builds",
    "parallel.shards",
    "parallel.redispatches",
    "checkpoint.bytes",
)


class Recorder:
    """Collects spans from any thread and counts from any forked child.

    ``spans`` holds ``[name, start, end, parent_index]`` lists; ``end`` is
    ``None`` while a span is open.  A span opened on a thread with no open
    span of its own (a pool thread) takes as parent the innermost span open
    on the thread that created the recorder, which is the thread waiting for
    the pool.
    """

    def __init__(self, fire_slots=0):
        self.spans = []
        self.counts = collections.Counter()
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._fires = [0] * fire_slots
        context = multiprocessing.get_context("fork")
        self._shared = context.Array("d", len(COUNTERS))
        self._shared_fires = context.Array("d", max(1, fire_slots))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_child(self):
        """True inside a process forked after the recorder was created."""
        return os.getpid() != self.pid

    def open(self, name):
        """Open a span on the calling thread and return its index."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        start = time.perf_counter()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, start, None, parent])
        stack.append(index)
        return index

    def close(self, index):
        """Close the span ``index`` (the innermost span of this thread)."""
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        else:
            stack.remove(index)

    def count(self, name, amount=1):
        """Add ``amount`` to counter ``name`` (shared when in a forked child)."""
        if self.in_child():
            slot = COUNTERS.index(name)
            with self._shared.get_lock():
                self._shared[slot] += amount
        else:
            with self._lock:
                self.counts[name] += amount

    def fire(self, slot):
        """Note one call of the patch in ``slot``."""
        if self.in_child():
            with self._shared_fires.get_lock():
                self._shared_fires[slot] += 1
        else:
            self._fires[slot] += 1

    def fires(self):
        """Calls per patch slot, this process and forked children together."""
        return [local + self._shared_fires[slot]
                for slot, local in enumerate(self._fires)]

    def totals(self):
        """Counts of this process plus those shipped from forked children."""
        totals = collections.Counter(self.counts)
        for slot, name in enumerate(COUNTERS):
            totals[name] += self._shared[slot]
        return totals


def self_times(spans):
    """``({name: self seconds}, covered seconds)`` of closed spans.

    Sweeps the span boundaries in time order.  Between two boundaries every
    open span without an open child is a leaf; the interval is split equally
    between the leaves.  ``covered`` is the length of the union of all spans.
    """
    events = []
    for index, (name, start, end, __) in enumerate(spans):
        if end is None:
            raise ValueError(f"span {name!r} was never closed")
        if end > start:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves = set()
    result = collections.defaultdict(float)
    covered = 0.0
    previous = None
    for moment, kind, index in events:
        if previous is not None and leaves and moment > previous:
            step = moment - previous
            share = step / len(leaves)
            for leaf in leaves:
                result[spans[leaf][0]] += share
            covered += step
        previous = moment
        parent = spans[index][3]
        if parent is not None and not is_open[parent]:
            parent = None
        if kind == 1:
            is_open[index] = True
            leaves.add(index)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open[index] = False
            leaves.discard(index)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return dict(result), covered


# --------------------------------------------------------------------------- #
# wrapping
# --------------------------------------------------------------------------- #


def _call_wrapper(recorder, original, span, after):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if recorder.in_child():
            result = original(*args, **kwargs)
        else:
            index = recorder.open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
        if after is not None:
            after(recorder, result, args, kwargs)
        return result
    return wrapper


def _generator_wrapper(recorder, original, span, after):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        inner = original(*args, **kwargs)
        try:
            while True:
                index = recorder.open(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    recorder.close(index)
                if after is not None:
                    after(recorder, item, args, kwargs)
                yield item
        finally:
            inner.close()
    return wrapper


class Patch:
    """One wrapped attribute: ``owner.attribute`` traced as span ``span``.

    ``after(recorder, result, args, kwargs)`` runs after every call (after
    every ``next()`` for generators) and records counts from the result.
    The tracer counts how often each patch fired, in forked children too,
    so a wrapper that never runs on a workload — a renamed or re-imported
    function — is detectable.
    """

    def __init__(self, owner, attribute, span, after=None):
        self.owner = owner
        self.attribute = attribute
        self.span = span
        self.after = after
        self._saved = None

    @property
    def label(self):
        if inspect.ismodule(self.owner):
            return f"{self.owner.__name__}.{self.attribute}"
        return (f"{self.owner.__module__}.{self.owner.__qualname__}."
                f"{self.attribute}")

    def install(self, recorder, slot):
        raw = inspect.getattr_static(self.owner, self.attribute)
        self._saved = raw
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        original = (function.__get__(self.owner, self.owner) if is_classmethod
                    else function)

        def after(recorder_, result, args, kwargs):
            recorder_.fire(slot)
            if self.after is not None:
                self.after(recorder_, result, args, kwargs)

        if inspect.isgeneratorfunction(function):
            wrapper = _generator_wrapper(recorder, original, self.span, after)
        else:
            wrapper = _call_wrapper(recorder, original, self.span, after)
        if is_classmethod:
            @functools.wraps(function)
            def bound(cls, *args, **kwargs):
                return wrapper(*args, **kwargs)
            setattr(self.owner, self.attribute, classmethod(bound))
        else:
            setattr(self.owner, self.attribute, wrapper)

    def uninstall(self):
        if self._saved is not None:
            setattr(self.owner, self.attribute, self._saved)
            self._saved = None


class Tracer:
    """Installs a set of :class:`Patch` objects around a block of work."""

    def __init__(self, patches):
        self.patches = list(patches)
        self.recorder = Recorder(fire_slots=len(self.patches))

    def __enter__(self):
        for slot, patch in enumerate(self.patches):
            patch.install(self.recorder, slot)
        return self

    def __exit__(self, *exc_info):
        for patch in reversed(self.patches):
            patch.uninstall()
        return False

    def silent(self):
        """Labels of wrapped functions that never fired, here or in a child."""
        fires = self.recorder.fires()
        return [patch.label for slot, patch in enumerate(self.patches)
                if fires[slot] == 0]
