"""In-memory spans around calls into the program's layers.

A :class:`Tracer` replaces named functions of the program with wrappers that
record one span per call: the span's name, its start and end on
``time.perf_counter`` and the span that was open when it started.  Wrappers
are installed where callers look the function up -- the class attribute for
methods, every importing module's global for functions imported by name -- and
:meth:`Tracer.restore` puts the originals back.  Nothing is written while the
program runs; :meth:`Tracer.dump` writes the spans out afterwards.

A span's *self time* is its duration minus the durations of its direct child
spans.  Calls on one thread are strictly nested, so children never
overlap and the self times of a span tree add up to the root's duration.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``before(args) -> token`` runs just before the wrapped call.
Before = Callable[[tuple], object]
#: ``after(tracer, token, args, result)`` runs just after it returns.
After = Callable[["Tracer", object, tuple, object], None]


class Target:
    """One function to wrap, by ``"package.module:Class.attr"`` or ``"package.module:func"``.

    ``name`` is the span name; several targets may share one.  ``count_only``
    targets only count calls: wrapping calls that small in spans would
    mostly measure the wrapper.
    """

    def __init__(
        self,
        name: str,
        path: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
        count_only: bool = False,
    ) -> None:
        self.name = name
        self.path = path
        self.before = before
        self.after = after
        self.count_only = count_only


class Tracer:
    """Records spans and counters for the targets it installs."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = {}
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """A wrapper around ``fn`` that records ``target``'s span or count.

        Only calls on the installing thread are recorded: the span stack is
        not shared between threads, and another thread's calls (the campaign
        heartbeat, say) would interleave with it.
        """
        owner, thread = threading.get_ident(), threading.get_ident
        if target.count_only:
            counts, key = self.counts, target.name + ".calls"

            def counted(*args, **kwargs):
                if thread() == owner:
                    counts[key] = counts.get(key, 0) + 1
                return fn(*args, **kwargs)

            return counted

        nid = self._name_id(target.name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        before, after, clock = target.before, target.after, time.perf_counter

        def traced(*args, **kwargs):
            if thread() != owner:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(self, token, args, result)
            return result

        return traced

    # ------------------------------------------------------------- patching
    def install(self, targets: Sequence[Target]) -> "Tracer":
        for target in targets:
            module_name, _, qualname = target.path.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self.wrap(target, raw.__func__)))
                else:
                    self._set(owner, attr, self.wrap(target, raw))
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(target, original)
            # A name imported by value is a separate binding in each importer.
            for loaded_name, loaded in sorted(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for attr, value in sorted(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, attr, wrapped)
        return self

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis
    def __len__(self) -> int:
        return len(self.start)

    def spans(self, first: int = 0) -> List[Tuple[str, float, float, int]]:
        """``(name, start, end, parent)`` of every span from index ``first``."""
        return [
            (self.names[self.name[i]], self.start[i], self.end[i], self.parent[i])
            for i in range(first, len(self.start))
        ]

    def retime(self, first: int, clock: Callable[[float], float]) -> None:
        """Map the start and end of every span from index ``first`` through ``clock``."""
        for times in (self.start, self.end):
            for i in range(first, len(times)):
                times[i] = clock(times[i])

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line: index, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i, (start, end, parent) in enumerate(zip(self.start, self.end, self.parent)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t{start!r}\t{end!r}\t{parent}\n")


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> List[float]:
    """Each span's duration minus its direct children's durations.

    Spans are indexed in start order, so a parent's index is always below its
    children's; ``-1`` marks a root.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


def inside(parents: Sequence[int], names: Sequence[int], ancestor: int) -> List[bool]:
    """For each span, whether it is or descends from a span named ``ancestor``."""
    flags: List[bool] = []
    for i, parent in enumerate(parents):
        flags.append(names[i] == ancestor or (parent >= 0 and flags[parent]))
    return flags
