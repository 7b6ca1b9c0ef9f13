"""Layer tracing for the benchmark's traced runs, from outside ``src/``.

:func:`install` imports the program's layer modules and replaces each
traced function with a timing wrapper, at module attribute level: the
wrapper goes into every loaded ``repro`` module that bound the
original (``from x import f`` copies included) and methods are patched
on their class.  Each call records one span ``[id, parent, name,
thread, start, end]``.

Spans nest on a *per-thread* stack: the sweep prefetch thread and the
daemon's handler and queue threads open spans concurrently with the
main thread, and one shared stack would parent a span on another
thread's open span (and so report negative self time).  A span's self
time is its duration minus the durations of its children, which run
inside it on the same thread.

Pool workers forked by the program inherit the wrappers; the recorder
resets itself in each child, and every work unit that finishes in a
child appends that child's spans and counts to ``<out_dir>/<pid>.jsonl``.
The main process writes its own file when the traced command returns
(:meth:`Recorder.dump`).  Spans of all processes are summed, so with ``--jobs
2`` a layer's time is busy time across processes, not wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

#: Modules whose functions are wrapped (imported before patching, so
#: every ``from ... import`` binding of a traced function is visible).
LAYER_MODULES = (
    "repro.cli",
    "repro.core.cache",
    "repro.core.diskcache",
    "repro.core.dp_makespan",
    "repro.core.dp_nextfailure",
    "repro.policies.dp",
    "repro.traces.generation",
    "repro.simulation.batch",
    "repro.simulation.parallel",
    "repro.simulation.shm",
    "repro.simulation.sweep",
    "repro.simulation.runner",
    "repro.service.daemon",
    "repro.service.envelope",
    "repro.service.queue",
    "repro.service.serialize",
    "repro.service.spec",
    "repro.service.store",
)


class Recorder:
    """Spans and counts of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [
            next(self._ids),
            stack[-1][0] if stack else 0,
            name,
            threading.get_ident(),
            time.perf_counter(),
            0.0,
        ]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span[2]!r} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def inside(self, prefix: str) -> bool:
        """Whether this thread is inside an open span named ``prefix*``."""
        return any(s[2].startswith(prefix) for s in self._stack())

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def dump(self) -> None:
        """Append this process's spans and counts since the last dump
        to ``<out_dir>/<pid>.jsonl``."""
        with self._lock:
            spans, self.spans = self.spans, []
            counts, self.counts = dict(self.counts), Counter()
        record = {"pid": self.pid, "spans": spans, "counts": counts}
        with open(self.out_dir / f"{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")


def _span(rec: Recorder, fn, name: str, after=None):
    """``fn`` wrapped in a span; ``after(args, result)`` then counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(args, result)
        return result

    return traced


def _route(parts: list[str], method: str) -> str:
    """Daemon route label of a request path split into parts."""
    tail = parts[1:]
    if tail == ["jobs"] and method == "POST":
        return "submit"
    if len(tail) == 3 and tail[0] == "jobs":
        return tail[2]  # "result" or "stream"
    if len(tail) == 2 and tail[0] == "jobs":
        return "status"
    return tail[0] if tail else "other"


def _wrappers(rec: Recorder) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper)`` for every traced callable."""
    # by module path: packages re-export same-named functions, which
    # shadow the submodule attribute (repro.core.dp_makespan)
    mod = importlib.import_module
    cache = mod("repro.core.cache")
    diskcache = mod("repro.core.diskcache")
    dp_makespan = mod("repro.core.dp_makespan")
    dp_nextfailure = mod("repro.core.dp_nextfailure")
    daemon = mod("repro.service.daemon")
    envelope = mod("repro.service.envelope")
    serialize = mod("repro.service.serialize")
    store = mod("repro.service.store")
    batch = mod("repro.simulation.batch")
    parallel = mod("repro.simulation.parallel")
    shm = mod("repro.simulation.shm")
    sweep = mod("repro.simulation.sweep")
    generation = mod("repro.traces.generation")

    out: list[tuple[object, str, object]] = []

    def add(owner, attr, name, after=None):
        out.append((owner, attr, _span(rec, getattr(owner, attr), name, after)))

    def count_load(args, result):
        rec.add("diskcache.misses" if result is None else "diskcache.hits")

    store_fn = diskcache.DiskSolveCache.store

    @functools.wraps(store_fn)
    def traced_store(self, *args, **kwargs):
        evictions = self.evictions
        span = rec.open("diskcache.store")
        try:
            return store_fn(self, *args, **kwargs)
        finally:
            rec.close(span)
            rec.add("diskcache.stores")
            rec.add("diskcache.evictions", self.evictions - evictions)

    out.append((diskcache.DiskSolveCache, "store", traced_store))
    add(diskcache.DiskSolveCache, "load", "diskcache.load", count_load)

    add(dp_nextfailure, "dp_next_failure_parallel", "dp_nextfailure.solve")
    add(dp_makespan, "dp_makespan", "dp_makespan.solve")
    for attr in ("cached_dp_makespan", "cached_dp_next_failure_parallel",
                 "cached_replan"):
        add(cache, attr, "cache.lookup")

    add(generation, "generate_platform_traces", "traces.generate")
    add(batch.TraceEnsemble, "__init__", "batch.compile")
    add(batch, "simulate_policy_ensemble", "batch.replay")
    add(batch, "simulate_job_batch", "batch.replay")
    add(batch, "simulate_lower_bound_batch", "batch.lower_bound")

    add(sweep, "_build_group", "sweep.build")
    add(shm, "publish_scenario", "shm.publish",
        lambda args, result: rec.add("shm.bytes", result.nbytes))
    add(shm, "merge_memo_delta", "parallel.memo_merge")

    def dump_in_worker(args, result):
        if os.getpid() != rec.root_pid:
            rec.dump()

    add(parallel, "_run_trace_task", "parallel.unit", dump_in_worker)
    add(parallel, "_run_period_task", "parallel.unit", dump_in_worker)

    add(serialize, "scenario_result_to_dict", "serialize.to_dict")
    add(envelope, "emit", "envelope.emit")
    dumps_fn = envelope.dumps

    @functools.wraps(dumps_fn)
    def traced_dumps(*args, **kwargs):
        # result-store files are encoded with the same function; that
        # time belongs to the store call around it, not to the envelope
        if rec.inside("store."):
            return dumps_fn(*args, **kwargs)
        span = rec.open("envelope.dumps")
        try:
            text = dumps_fn(*args, **kwargs)
        finally:
            rec.close(span)
        rec.add("envelope.bytes", len(text))
        return text

    out.append((envelope, "dumps", traced_dumps))

    def count_get(args, result):
        if result is not None:
            rec.add("store.hits")

    add(store.ResultStore, "put", "store.put")
    add(store.ResultStore, "get", "store.get", count_get)

    dispatch = daemon._Handler._dispatch

    @functools.wraps(dispatch)
    def traced_dispatch(self, method, parts):
        span = rec.open("daemon.request." + _route(parts, method))
        try:
            return dispatch(self, method, parts)
        finally:
            rec.close(span)

    out.append((daemon._Handler, "_dispatch", traced_dispatch))
    return out


def install(out_dir: Path) -> Recorder:
    """Import the layer modules, wrap their traced callables and count
    ``os.stat`` calls made inside disk-tier stores.  Returns the
    recorder; call :meth:`Recorder.dump` when the traced work ends."""
    rec = Recorder(out_dir)
    for name in LAYER_MODULES:
        importlib.import_module(name)
    for owner, attr, wrapper in _wrappers(rec):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    stat = os.stat

    @functools.wraps(stat)
    def counted_stat(*args, **kwargs):
        if rec.inside("diskcache.store"):
            rec.add("diskcache.store_stats")
        return stat(*args, **kwargs)

    os.stat = counted_stat
    return rec


def load(out_dir: Path) -> tuple[list[dict], Counter]:
    """All spans (with ``self`` and ``dur`` seconds) and summed counts
    from the dump files under ``out_dir``."""
    spans: list[dict] = []
    counts: Counter = Counter()
    child_time: Counter = Counter()
    for path in sorted(Path(out_dir).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            counts.update(record["counts"])
            pid = record["pid"]
            for span_id, parent, name, tid, start, end in record["spans"]:
                spans.append({"pid": pid, "id": span_id, "parent": parent,
                              "name": name, "tid": tid, "dur": end - start})
                if parent:
                    child_time[(pid, parent)] += end - start
    for span in spans:
        span["self"] = span["dur"] - child_time[(span["pid"], span["id"])]
    return spans, counts
