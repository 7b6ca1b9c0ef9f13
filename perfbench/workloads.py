"""The four benchmark workloads, run as a user runs the program.

Every workload drives ``repro`` in child processes of the benchmark
process: ``repro run`` / ``repro sweep`` invocations, or one ``repro
serve`` daemon with the benchmark as its only client (a closed loop:
one connection, the next request only after the previous reply).  Each
iteration returns the latencies, output digests and failures it saw;
``run.py`` turns them into metrics.  See ``README.md`` for why each
workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: All eight policies of the paper's roster (plus LowerBound, which
#: specs include by default, and PeriodLB via ``--period-lb``).
ALL_POLICIES = ("young,dalylow,dalyhigh,optexp,bouguerra,liu,"
                "dpnextfailure,dpmakespan")


@dataclass
class Ctx:
    """Where and with what a benchmark run works."""

    root: Path  # checkout root (holds src/)
    work: Path  # this run's scratch directory inside the checkout
    seed: int
    toy: bool
    deadline: float  # perf_counter() value no child may run past

    def env(self, service_dir: Path) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_SERVICE_DIR"] = str(service_dir)
        return env

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Op:
    """One user-visible operation: a CLI invocation or a daemon job."""

    latency_s: float
    cached: bool = False
    error: str | None = None
    digest: str | None = None


@dataclass
class Iteration:
    """What one timed pass of a workload saw."""

    wall_s: float
    ops: list[Op]
    peak_rss_mb: float
    docs: list[dict] = field(default_factory=list)  # result documents
    envelopes: list[dict] = field(default_factory=list)
    statuses: list[dict] = field(default_factory=list)  # service jobs
    service_dir: Path | None = None


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

#: The spec-determined fields of a result document (execution metadata
#: such as elapsed time and cache counters legitimately differs between
#: identical runs); mirrors repro.service.serialize.RESULT_PAYLOAD_FIELDS.
PAYLOAD_FIELDS = ("format", "makespans", "details", "work_time",
                  "best_period", "infeasible")


def digest(docs: list[dict]) -> str:
    """SHA-256 of the comparable payloads of result documents."""
    payload = [{name: doc[name] for name in PAYLOAD_FIELDS} for doc in docs]
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def lower_bound_violations(doc: dict) -> int:
    """Traces on which LowerBound exceeds some policy's makespan (the
    omniscient bound must sit below every policy on every trace).  A
    result without LowerBound counts as one violation."""
    spans = doc["makespans"]
    bound = spans.get("LowerBound")
    if not bound:
        return 1
    bad = 0
    for name, values in spans.items():
        if name == "LowerBound":
            continue
        for lb, value in zip(bound, values):
            if value is None or not math.isfinite(value):
                continue  # infeasible (policy, trace) pair
            if lb is None or lb > value:
                bad += 1
    return bad


def check_results(docs: list[dict]) -> tuple[str, str | None]:
    """(digest, error) of one operation's result documents."""
    bad = sum(lower_bound_violations(doc) for doc in docs)
    error = f"LowerBound above a policy on {bad} trace(s)" if bad else None
    return digest(docs), error


def check_agreement(ops: list[Op], expected: str | None = None) -> None:
    """Fail every op whose digest differs from ``expected`` (default:
    the first op's): identical inputs must give identical results."""
    reference = expected
    for op in ops:
        if op.digest is None:
            continue
        if reference is None:
            reference = op.digest
        elif op.digest != reference and op.error is None:
            op.error = "result digest differs from the first run's"


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


class TreeRss(threading.Thread):
    """Samples the peak RSS of a process tree: the largest sum, over the
    processes alive in the tree at one sample, of their high-water
    marks (VmHWM).

    Every ``interval`` the tree is re-read from ``/proc`` (pool workers
    come and go between phases, and workers that never coexisted must
    not be summed); a process's parent is read once, when its pid first
    appears, which keeps a sample cheap next to the workers it
    measures."""

    def __init__(self, pid: int, interval: float = 0.05):
        super().__init__(daemon=True)
        self.root = pid
        self.interval = interval
        self.peak_kb = 0
        self._parent: dict[int, int] = {}
        self._done = threading.Event()

    def _tree(self) -> list[int]:
        live = [int(name) for name in os.listdir("/proc") if name.isdigit()]
        children: dict[int, list[int]] = {}
        for pid in live:
            if pid not in self._parent:
                try:
                    with open(f"/proc/{pid}/stat") as fh:
                        stat = fh.read()
                    self._parent[pid] = int(stat.rsplit(")", 1)[1].split()[1])
                except (OSError, IndexError, ValueError):
                    continue
            children.setdefault(self._parent[pid], []).append(pid)
        tree, i = [self.root], 0
        while i < len(tree):
            tree.extend(children.get(tree[i], ()))
            i += 1
        return tree

    def sample(self) -> None:
        total = 0
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                continue
        self.peak_kb = max(self.peak_kb, total)

    def run(self) -> None:
        while not self._done.wait(self.interval):
            self.sample()

    def finish(self) -> float:
        """Stop sampling; the peak in MiB."""
        self._done.set()
        self.join()
        return self.peak_kb / 1024.0


def kill_tree(proc: subprocess.Popen) -> None:
    """Kill a child started in its own session and every process left
    in that session (pool workers too), then reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group has already exited
    proc.wait()


def run_cli(ctx: Ctx, argv: list[str], service_dir: Path,
            trace_dir: Path | None = None) -> tuple[Op, dict | None, float]:
    """One ``repro`` invocation; returns (op, envelope, peak RSS MiB).

    Latency runs from spawn to the parsed stdout envelope.  With
    ``trace_dir`` the command runs under ``traced_repro.py``."""
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_repro.py"),
               str(trace_dir), *argv]
    log = ctx.work / "cli-stderr.log"
    start = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(cmd, cwd=ctx.work, env=ctx.env(service_dir),
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        rss = TreeRss(proc.pid)
        rss.start()
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, ctx.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            kill_tree(proc)
            rss.finish()
            return Op(time.perf_counter() - start,
                      error="timed out"), None, 0.0
        finally:
            if proc.poll() is None:
                kill_tree(proc)
    try:
        env = json.loads(out)
    except json.JSONDecodeError:
        env = None
    latency = time.perf_counter() - start
    peak = rss.finish()
    op = Op(latency)
    if env is None:
        op.error = f"stdout is not one JSON document (exit {proc.returncode})"
    elif proc.returncode != 0 or not env.get("ok"):
        op.error = f"exit {proc.returncode}: {env.get('error')}"
    return op, env, peak


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------


def peta_argv(seed: int, jobs: int, toy: bool) -> list[str]:
    """Scaled Petascale Table-4/Figure-4 scenario: Weibull k=0.7, an
    8-day job against a ~1-day platform MTBF."""
    size = (["-p", "64", "--mtbf", "1.415y", "--work", "1.4y",
             "--traces", "2"] if toy else
            ["-p", "512", "--mtbf", "1.415y", "--work", "11.3y",
             "--traces", "20"])
    return ["run", "--dist", "weibull", "-k", "0.7", *size,
            "-C", "600", "-R", "600", "-D", "60",
            "--policies", ALL_POLICIES, "--period-lb",
            "--seed", str(seed), "--jobs", str(jobs)]


def sweep_argv(seed: int, toy: bool) -> list[str]:
    """Scaled Exascale Figure-2/3 base with a checkpoint x distribution
    grid: 8 points in 2 trace groups, static policies only."""
    size = (["-p", "64", "--traces", "8"] if toy else
            ["-p", "1024", "--traces", "600"])
    return ["sweep", "--dist", "weibull", "-k", "0.7", *size,
            "--mtbf", "1.2y", "--work", "9.6y",
            "-C", "600", "-R", "600", "-D", "60",
            "--policies", "young,dalylow,dalyhigh,optexp,liu",
            "--seed", str(seed),
            "--grid", "checkpoint=300,600,900,1200",
            "--grid", "dist=weibull,exponential", "--jobs", "2"]


def result_docs(env: dict) -> list[dict]:
    """The result documents of a ``run`` or ``sweep`` envelope."""
    data = env["data"]
    if env["command"] == "sweep":
        return [point["result"] for point in data["points"]]
    return [data["result"]]


class CliWorkload:
    """A workload of repeated ``repro run`` / ``repro sweep`` calls.

    Without ``populate`` each iteration runs in an empty service
    directory, so the disk solve tier starts cold.  With it, set-up
    fills one service directory by running ``populate`` once, and every
    iteration reads that tier state in a fresh process."""

    def __init__(self, argv, populate=None):
        self.argv = argv
        self.populate = populate
        self.setup_times: list[float] = []
        self.expected: str | None = None
        self._warm_dir: Path | None = None

    def setup(self, ctx: Ctx, repeats: int) -> None:
        """Warm: the one populate run.  Cold: a toy-size run of the same
        command, ``repeats`` times, which warms the interpreter, the
        bytecode and the page cache."""
        if self.populate is not None:
            self._warm_dir = ctx.fresh_dir("svc-warm")
            op, env, _ = run_cli(ctx, self.populate(ctx), self._warm_dir)
            if op.error is not None:
                raise RuntimeError(f"populate run failed: {op.error}")
            self.expected, error = check_results(result_docs(env))
            if error is not None:
                raise RuntimeError(f"populate run: {error}")
            self.setup_times.append(op.latency_s)
            return
        toy = Ctx(ctx.root, ctx.work, ctx.seed, True, ctx.deadline)
        for _ in range(repeats):
            op, _, _ = run_cli(ctx, self.argv(toy), ctx.fresh_dir("svc-setup"))
            if op.error is not None:
                raise RuntimeError(f"set-up run failed: {op.error}")
            self.setup_times.append(op.latency_s)

    def iteration(self, ctx: Ctx, index: int,
                  trace_dir: Path | None = None) -> Iteration:
        service_dir = self._warm_dir or ctx.fresh_dir(f"svc-{index}")
        op, env, peak = run_cli(ctx, self.argv(ctx), service_dir, trace_dir)
        docs = []
        if op.error is None:
            docs = result_docs(env)
            op.digest, op.error = check_results(docs)
        return Iteration(op.latency_s, [op], peak, docs=docs,
                         envelopes=[env] if env else [],
                         service_dir=service_dir)

    def check(self, ops: list[Op]) -> None:
        check_agreement(ops, self.expected)


# ----------------------------------------------------------------------
# the service workload
# ----------------------------------------------------------------------


def service_specs(seed: int, count: int) -> list[dict]:
    """``count`` distinct tiny scenarios, seeds derived from ``seed``."""
    return [{
        "dist": "weibull", "shape": 0.7, "p": 16,
        "mtbf": 8 * 3600.0, "work": 32 * 3600.0, "n_traces": 4,
        "seed": seed * 1000 + i,
        "policies": ["young", "dalylow", "optexp", "period:3600.0"],
    } for i in range(count)]


class Daemon:
    """A ``repro serve --workers 1 --port 0`` child process."""

    def __init__(self, ctx: Ctx, service_dir: Path,
                 trace_dir: Path | None = None):
        argv = ["serve", "--workers", "1", "--port", "0"]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_repro.py"),
                   str(trace_dir), *argv]
        start = time.perf_counter()
        self._log = open(ctx.work / "daemon-stderr.log", "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=ctx.work, env=ctx.env(service_dir),
            stdout=subprocess.PIPE, stderr=self._log, start_new_session=True)
        try:
            self.endpoint = self._read_endpoint(start + 60.0)
            self._wait_healthy(start + 60.0)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _read_endpoint(self, deadline: float) -> str:
        """The daemon prints one (indented) JSON envelope on start."""
        fd = self.proc.stdout.fileno()
        text = b""
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError("daemon did not report its endpoint")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError("daemon exited before starting")
            text += chunk
            try:
                return json.loads(text)["data"]["endpoint"]
            except json.JSONDecodeError:
                continue

    def _wait_healthy(self, deadline: float) -> None:
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient(self.endpoint, timeout=10.0)
        while True:
            try:
                if client.health()["ok"]:
                    return
            except ServiceError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.01)

    def stop(self) -> None:
        """Ask for a clean shutdown (which also flushes a trace)."""
        from repro.service.client import ServiceClient, ServiceError

        try:
            ServiceClient(self.endpoint, timeout=10.0).shutdown()
            self.proc.wait(timeout=30.0)
        except (ServiceError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        kill_tree(self.proc)
        self.proc.stdout.close()
        self._log.close()


class ServiceWorkload:
    """A closed loop of tiny jobs against a fresh daemon per iteration:
    every scenario computed once, then every one resubmitted and served
    from the result store."""

    def __init__(self):
        self.setup_times: list[float] = []
        self.count = 0

    def setup(self, ctx: Ctx, repeats: int) -> None:
        """Nothing: each iteration starts its own daemon, and that
        spawn-to-healthy time is this workload's set-up."""

    def iteration(self, ctx: Ctx, index: int,
                  trace_dir: Path | None = None) -> Iteration:
        from repro.service.client import ServiceClient, ServiceError

        specs = service_specs(ctx.seed, 5 if ctx.toy else 150)
        self.count = len(specs)
        service_dir = ctx.fresh_dir(f"svc-{index}")
        daemon = Daemon(ctx, service_dir, trace_dir)
        self.setup_times.append(daemon.setup_s)
        rss = TreeRss(daemon.proc.pid)
        rss.start()
        client = ServiceClient(daemon.endpoint, timeout=60.0)
        ops: list[Op] = []
        docs: list[dict] = []
        statuses: list[dict] = []
        computed: list[str | None] = []
        try:
            start = time.perf_counter()
            for cached in (False, True):
                for i, spec in enumerate(specs):
                    try:
                        op, doc, status = self._job(client, spec, cached)
                    except ServiceError as exc:
                        op, doc, status = Op(0.0, cached, error=str(exc)), None, None
                    if doc is not None:
                        if cached:
                            op.digest = digest([doc])
                            if computed[i] is not None and op.digest != computed[i]:
                                op.error = "cached result differs from computed"
                        else:
                            docs.append(doc)
                            statuses.append(status)
                            op.digest, op.error = check_results([doc])
                    if not cached:
                        computed.append(op.digest)
                    ops.append(op)
            wall = time.perf_counter() - start
            rss.sample()
        finally:
            peak = rss.finish()
            daemon.stop()
        return Iteration(wall, ops, peak, docs=docs, statuses=statuses,
                         service_dir=service_dir)

    @staticmethod
    def _job(client, spec: dict, cached: bool):
        """Submit, stream to a terminal state, fetch the result."""
        start = time.perf_counter()
        env = client.submit(spec)
        if not env["ok"]:
            return Op(time.perf_counter() - start, cached,
                      error=f"submit: {env['error']}"), None, None
        job = env["data"]
        state = job["state"]
        if state not in ("done", "failed", "cached"):
            for snapshot in client.stream(job["job_id"]):
                state = snapshot["state"]
        env = client.result(job["job_id"])
        latency = time.perf_counter() - start
        want = "cached" if cached else "done"
        if not env["ok"] or state != want:
            return Op(latency, cached,
                      error=f"job ended {state!r}, expected {want!r}"), None, None
        return Op(latency, cached), env["data"]["result"], env["data"]["status"]

    def check(self, ops: list[Op]) -> None:
        # every iteration runs the same specs on a fresh store, so the
        # computed results of all iterations must agree job by job
        computed = [op for op in ops if not op.cached]
        for i in range(self.count):
            check_agreement(computed[i::self.count])


def make(name: str):
    """The workload object for a workload name."""
    if name == "peta_dp_cold":
        return CliWorkload(lambda ctx: peta_argv(ctx.seed, 2, ctx.toy))
    if name == "peta_dp_warm":
        return CliWorkload(lambda ctx: peta_argv(ctx.seed, 1, ctx.toy),
                           populate=lambda ctx: peta_argv(ctx.seed, 2, ctx.toy))
    if name == "static_sweep":
        return CliWorkload(lambda ctx: sweep_argv(ctx.seed, ctx.toy))
    if name == "service_jobs":
        return ServiceWorkload()
    raise KeyError(name)


WORKLOADS = ("peta_dp_cold", "peta_dp_warm", "static_sweep", "service_jobs")


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
