"""Timing wrappers the benchmark installs around each layer's public functions.

The program is not edited: ``install`` replaces attributes with wrappers that
record one span per call (layer, name, start, end, the span that caused it)
and ``remove`` puts the originals back. Spans stay in memory; ``self_times``
turns them into per-layer self time after the pass.

Self time follows the choosing-metrics guide: a span's duration minus the part
of that interval its child spans cover. Children may run on other threads
(the depth-2 dock pipeline), so when several threads are inside a span at the
same instant that instant is split evenly between them. The layer times of a
pass therefore add up to at most its wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict

#: Span name the ``os.fsync`` wrapper records; its layer is its caller's.
FSYNC = "os.fsync"

_STORE_METHODS = (
    "start_shard", "finish_shard", "register_ligands", "mark_running",
    "record_result", "record_failure", "done_ordinals", "finished_shards",
    "is_complete", "mark_complete", "wait_for_compaction", "counts", "top",
    "science_digest", "export_csv", "close",
)

#: (layer, "module[:Class]", attribute names). A function imported by name
#: into another module is wrapped where it is looked up at call time.
TARGETS = (
    ("campaign.runner", "repro.campaign.runner:CampaignRunner", ("run", "resume")),
    ("vs.docking", "repro.campaign.runner", ("dock",)),
    ("metaheuristics", "repro.vs.docking", ("run_metaheuristic",)),
    ("engine.host_runtime", "repro.engine.host_runtime:PersistentHostRuntime",
     ("lease", "acquire", "hint_next", "evaluator_factory", "close")),
    ("engine.host_runtime", "repro.engine.host_runtime:ParallelSpotEvaluator",
     ("submit", "harvest")),
    ("engine.host_runtime", "repro.engine.host_runtime:LigandLease", ("release",)),
    ("campaign.store", "repro.campaign.runner", ("create_store", "open_store")),
    ("campaign.store", "repro.campaign.backends", ("create_store", "open_store")),
    ("campaign.store", "repro.campaign.store:CampaignStore", _STORE_METHODS),
    ("campaign.store", "repro.campaign.colstore:ColumnarStore", _STORE_METHODS),
    ("campaign.journal", "repro.campaign.journal:CampaignJournal",
     ("append", "flush", "replay")),
    ("molecules", "repro.campaign.library", ("generate_ligand",)),
    (None, "os", ("fsync",)),
)

#: Generators: every ``next()`` is one span.
GENERATOR_TARGETS = (
    ("campaign.library", "repro.campaign.runner", ("iter_shards",)),
    ("campaign.library", "repro.campaign.library", ("iter_shards",)),
    ("campaign.library", "repro.campaign.library:SmilesSource", ("__iter__",)),
    ("campaign.library", "repro.campaign.library:ListSource", ("__iter__",)),
)

#: Wrapped on ``BoundScorer`` / ``ScoringFunction`` and every subclass that
#: defines them, so whichever kernel a workload selects is covered.
_SCORER_METHODS = ("score", "score_spots", "score_one", "score_coords")


class Recorder:
    """In-memory span list of one process; threads share it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: [layer, name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            # First span of a helper thread: caused by whatever the main
            # thread is inside (the runner submitting docks to its threads).
            parent = self._main_stack[-1]
        else:
            parent = -1
        span = [layer, name, 0.0, 0.0, parent]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[2] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack().pop()


def _wrap_call(recorder: Recorder, layer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != recorder.pid:  # forked pool worker: not our process
            return fn(*args, **kwargs)
        index = recorder.begin(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(index)

    wrapper.__perf_original__ = fn
    return wrapper


def _wrap_generator(recorder: Recorder, layer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            index = recorder.begin(layer, name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.end(index)
            yield item

    wrapper.__perf_original__ = fn
    return wrapper


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _sites() -> list[tuple]:
    """Every (layer, owner, attribute, wrap function) the benchmark patches."""
    from repro.scoring.base import BoundScorer, ScoringFunction

    sites = []
    for targets, wrap in ((TARGETS, _wrap_call), (GENERATOR_TARGETS, _wrap_generator)):
        for layer, path, names in targets:
            owner = _resolve(path)
            sites.extend((layer, owner, name, wrap) for name in names)
    for base, names in ((BoundScorer, _SCORER_METHODS), (ScoringFunction, ("bind",))):
        for cls in _subclasses(base):
            for name in names:
                if name in vars(cls) and not getattr(vars(cls)[name], "__isabstractmethod__", False):
                    sites.append(("scoring", cls, name, _wrap_call))
    return sites


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every site; returns what ``remove`` needs to undo it."""
    patches = []
    for layer, owner, name, wrap in _sites():
        original = vars(owner)[name]
        label = f"{getattr(owner, '__name__', owner)}.{name}"
        setattr(owner, name, wrap(recorder, layer, label, original))
        patches.append((owner, name, original))
    return patches


def remove(patches: list[tuple]) -> None:
    for owner, name, original in patches:
        setattr(owner, name, original)


def installed() -> list[str]:
    """Names of sites that currently carry a wrapper (empty when clean)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for _, owner, name, _ in _sites()
        if hasattr(vars(owner)[name], "__perf_original__")
    ]


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span adds to the call it wraps, timed on a no-op.

    A lower bound for a span inside a pass, where the wrapper's code and the
    span list are not always in cache.
    """
    def noop() -> None:
        pass

    wrapped = _wrap_call(Recorder(), "calibration", "noop", noop)
    seconds = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        seconds.append(time.perf_counter() - t0)
    return max(seconds[1] - seconds[0], 0.0) / calls


def self_times(spans: list[list]) -> dict[tuple, float]:
    """Self time per (layer, name), concurrent threads sharing each instant.

    A span with layer ``None`` (``os.fsync``) takes its caller's layer.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(index)

    def layer_of(index: int):
        while index >= 0 and spans[index][0] is None:
            index = spans[index][4]
        return spans[index][0] if index >= 0 else "unattributed"

    # Self intervals: the span's own interval minus what its children cover.
    events: list[tuple[float, int, tuple]] = []
    for index, (_, name, start, end, _) in enumerate(spans):
        key = (layer_of(index), name)
        cursor = start
        for child in sorted(children[index], key=lambda c: spans[c][2]):
            child_start = max(spans[child][2], start)
            child_end = min(spans[child][3], end)
            if child_start > cursor:
                events.append((cursor, 1, key))
                events.append((child_start, -1, key))
            cursor = max(cursor, child_end)
        if end > cursor:
            events.append((cursor, 1, key))
            events.append((end, -1, key))

    totals: dict[tuple, float] = defaultdict(float)
    active: dict[tuple, int] = defaultdict(int)
    n_active = 0
    previous = 0.0
    for when, delta, key in sorted(events, key=lambda e: (e[0], e[1])):
        if n_active and when > previous:
            share = (when - previous) / n_active
            for open_key, count in active.items():
                if count:
                    totals[open_key] += share * count
        previous = when
        active[key] += delta
        n_active += delta
    return dict(totals)
