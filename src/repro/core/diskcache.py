"""Persistent L2 solve cache: disk-backed DP tables and replan memos.

The in-memory caches of :mod:`repro.core.cache` (the DP-table LRU and
the replan memo) die with the process: every new CI run, daemon restart
or fresh sweep pays the full cold-solve cost again, and every parallel
runner worker builds its own private memo.  This module adds the tier
below them:

.. code-block:: text

    L1  repro.core.cache      in-memory LRU (process lifetime)
    L2  repro.core.diskcache  .repro-service/solvecache/<version>/ (this file)
        cold solve            dp_makespan / dp_next_failure

Entries are **content-addressed**: the key is the exact tuple the L1
caches already use — quantized state signature plus every distribution
and grid parameter — canonically encoded and SHA-256 hashed, so any two
processes that would solve the same DP share one file.  Payloads are
single ``.npz`` documents (NumPy's binary format round-trips float64
arrays bit-exactly) with a JSON metadata record embedded alongside the
arrays; a disk-warm solve is therefore *bit-identical* to a cold solve,
which the tests and ``benchmarks/bench_solvecache.py --smoke`` gate.

Durability discipline (the same R10 contract the result store obeys):

- writes go to a sibling temp file and ``os.replace`` into place, so a
  reader never observes a torn entry and two processes racing on the
  same key both succeed (last replace wins; the contents are identical
  by construction);
- any unreadable entry — truncated, garbage, wrong key — is treated as
  a miss and removed best-effort; corruption can cost time, never
  correctness;
- the store directory is salted with
  :func:`repro.service.store.store_version` (a source hash of every
  result-determining package), so a code change retires every stale
  entry automatically; old-version directories are pruned on the next
  write.

The tier is bounded by a byte budget (default 256 MiB), evicting
least-recently-used entries first.  Recency is file *mtime*, which
``load()`` bumps explicitly on every hit so it survives
``noatime``-mounted filesystems.  Keeping the budget costs a store
amortized O(1) file-system operations:

- each process keeps an index ``path -> (mtime, size)`` and a running
  byte total of the tier, seeded by one walk of the entry directory
  the first time it stores there (again only if the directory moves,
  e.g. ``configure_disk_cache(root=...)``); a store stats only the
  file it wrote and adds it to the total;
- only a store that takes the total over ``max_bytes`` rescans — which
  picks up other processes' writes and evictions and ``load()``'s
  recency bumps — and then evicts LRU-first down to a low-water mark
  of 90% of the budget, so a tier held at its budget rescans about
  once per tenth of a budget written, not on every store;
- a process does not see other processes' writes until its next
  rescan, so the tier can run over budget by what the other writers
  added since; the budget is enforced again at the next store of any
  process that takes its own total over it.

Per-process hit/miss/store/evict counters feed
``ScenarioResult.disk_hits`` / ``disk_misses`` / ``disk_evictions``;
advisory lifetime counters are persisted next to the entries for
``repro store``, flushed once per work unit (``flush_counters``), not
per store.  ``ExecutionConfig.use_disk_cache=False``
(``--no-disk-cache`` / ``REPRO_BENCH_NO_DISKCACHE``), read from the
active execution config, bypasses the tier entirely (the slow path is
simply the cold solve).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.execution import active_execution

__all__ = [
    "DiskCacheStats",
    "DiskSolveCache",
    "get_disk_cache",
    "configure_disk_cache",
    "disk_cache_stats",
    "reset_disk_cache_stats",
    "wipe_disk_cache",
    "key_digest",
    "load_dp_makespan",
    "store_dp_makespan",
    "load_replan",
    "store_replan",
]

_SOLVE_TIER_NAME = "solvecache"

#: On-disk entry layout; bump to retire entries on an incompatible
#: payload change the source hash cannot see.
_ENTRY_FORMAT = 1

#: Default LRU byte budget for the whole tier (all kinds together).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Eviction frees entries down to this fraction of ``max_bytes``.  The
#: headroom it leaves is what keeps the rescans before eviction rare: a
#: tier evicted only down to its budget would rescan on every store.
_LOW_WATER = 0.9

_COUNTERS_NAME = "counters.json"
_COUNTER_NAMES = ("hits", "misses", "stores", "evictions")


# ----------------------------------------------------------------------
# canonical key encoding
# ----------------------------------------------------------------------


def _feed(h: "hashlib._Hash", part: Any) -> None:
    """Feed one key element into the digest with an unambiguous
    type-tag + length + payload framing."""
    if isinstance(part, bytes):
        tag, payload = b"b", part
    elif isinstance(part, bool):  # before int: bool is an int subclass
        tag, payload = b"o", b"1" if part else b"0"
    elif isinstance(part, int):
        tag, payload = b"i", str(part).encode("ascii")
    elif isinstance(part, float):
        tag, payload = b"f", float(part).hex().encode("ascii")
    elif isinstance(part, str):
        tag, payload = b"s", part.encode("utf-8")
    elif isinstance(part, tuple):
        h.update(b"t")
        h.update(len(part).to_bytes(8, "little"))
        for item in part:
            _feed(h, item)
        return
    else:
        raise TypeError(
            f"unsupported solve-cache key element {type(part).__name__!r}"
        )
    h.update(tag)
    h.update(len(payload).to_bytes(8, "little"))
    h.update(payload)


def key_digest(kind: str, key: tuple) -> str:
    """SHA-256 hex digest of a solve key (the content address).

    The encoding is canonical — every element framed with a type tag
    and byte length — so two keys collide only if they are equal, and
    floats enter via ``float.hex()`` (exact, locale-independent).
    """
    h = hashlib.sha256()
    h.update(kind.encode("utf-8"))
    h.update(b"\x00")
    _feed(h, key)
    return h.hexdigest()


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiskCacheStats:
    """Per-process counters of the disk solve cache."""

    hits: int
    misses: int
    stores: int
    evictions: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _EntryIndex:
    """One process's view of a tier directory: ``path -> (mtime, size)``
    for every entry, and their byte total.

    Seeded by one walk of ``root``; exact for the writes recorded with
    :meth:`add`, blind to other processes' writes and evictions and to
    ``load()``'s recency bumps until the next :meth:`rescan`.  Not
    thread-safe: :class:`DiskSolveCache` serializes access under its
    lock.
    """

    def __init__(self, root: Path):
        self.root = root
        self.entries: dict[Path, tuple[float, int]] = {}
        self.total = 0
        self.rescan()

    def rescan(self) -> None:
        """Rebuild the index from one walk of ``root``.  In-flight
        temp files are not entries (evicting one would fail its
        writer's store); an entry removed mid-walk by another process
        is skipped; a walk cut short leaves a partial index, which
        only brings the next rescan forward."""
        entries: dict[Path, tuple[float, int]] = {}
        with contextlib.suppress(OSError):
            for path in self.root.rglob("*.npz"):
                if path.name.startswith(".tmp-"):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries[path] = (stat.st_mtime, stat.st_size)
        self.entries = entries
        self.total = sum(size for _, size in entries.values())

    def add(self, path: Path) -> None:
        """Record an entry this process just wrote (or rewrote), unless
        it has been evicted since."""
        try:
            stat = path.stat()
        except OSError:
            return
        previous = self.entries.get(path)
        self.total += stat.st_size - (previous[1] if previous is not None else 0)
        self.entries[path] = (stat.st_mtime, stat.st_size)

    def evict(self, max_bytes: int) -> int:
        """Enforce the byte budget; returns the number of entries
        removed.  A no-op while the indexed total is within
        ``max_bytes``.  Otherwise rescan, and if the tier really is
        over budget, drop least-recently-used entries down toward the
        low-water mark ``_LOW_WATER * max_bytes``: always back within
        budget, and once within it, no entry whose removal would take
        the tier below the mark.

        Recency is ``st_mtime``, not ``st_atime``: ``load()`` bumps
        mtime explicitly on every hit, whereas atime is frozen (or
        update-limited) on ``noatime``/``relatime`` filesystems and
        would make eviction order effectively write-time FIFO there."""
        if self.total <= max_bytes:
            return 0
        self.rescan()
        if self.total <= max_bytes:
            return 0
        low_water = max_bytes * _LOW_WATER
        evicted = 0
        for _, size, path in sorted(
            (mtime, size, path) for path, (mtime, size) in self.entries.items()
        ):
            if self.total <= max_bytes and self.total - size < low_water:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # another process evicted it first
            except OSError:
                continue
            else:
                evicted += 1
            del self.entries[path]
            self.total -= size
        return evicted


class DiskSolveCache:
    """Disk-backed, content-addressed solve store (the L2 tier).

    Mirrors :class:`repro.service.store.ResultStore`: plain files under
    ``<base>/solvecache/<store_version()>/<kind>/<digest[:2]>/``, safe
    to share through any filesystem.  Thread-safe within a process;
    cross-process writers of the same key are idempotent (atomic
    replace of identical content).  An active execution config with
    ``use_disk_cache=False`` turns every load and store into a no-op so
    the cold path is always reachable.
    """

    def __init__(
        self,
        root: Path | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self._base = Path(root) if root is not None else None
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self._flushed = dict.fromkeys(_COUNTER_NAMES, 0)
        self._pruned = False
        # seeded by the first store into a root (see store())
        self._index: _EntryIndex | None = None  # reprolint: guarded-by=_lock

    @property
    def enabled(self) -> bool:
        """Whether the active execution config consults the tier."""
        return active_execution().use_disk_cache

    # -- paths ---------------------------------------------------------

    @property
    def tier_root(self) -> Path:
        """``<base>/solvecache`` (all versions)."""
        from repro.service.store import default_store_dir

        base = self._base if self._base is not None else default_store_dir()
        return base / _SOLVE_TIER_NAME

    @property
    def root(self) -> Path:
        """The current code version's entry directory."""
        from repro.service.store import store_version

        return self.tier_root / store_version()

    def _entry_path(self, kind: str, digest: str, root: Path | None = None) -> Path:
        root = self.root if root is None else root
        return root / kind / digest[:2] / f"{digest}.npz"

    # -- read ----------------------------------------------------------

    def load(self, kind: str, key: tuple) -> dict[str, np.ndarray] | None:
        """The stored arrays for ``(kind, key)``, or None on a miss.

        Counts a hit or a miss; any read failure — missing file,
        truncation, garbage, key mismatch — is a miss, with the corrupt
        file removed best-effort so it is rebuilt on the next store.
        """
        if not self.enabled:
            return None
        digest = key_digest(kind, key)
        path = self._entry_path(kind, digest)
        arrays: dict[str, np.ndarray] | None = None
        try:
            raw = path.read_bytes()
            with np.load(io.BytesIO(raw), allow_pickle=False) as npz:
                meta = json.loads(bytes(npz["__meta__"].tobytes()).decode())
                if (
                    meta.get("format") == _ENTRY_FORMAT
                    and meta.get("kind") == kind
                    and meta.get("digest") == digest
                ):
                    arrays = {
                        name: np.array(npz[name])
                        for name in npz.files
                        if name != "__meta__"
                    }
        except FileNotFoundError:
            arrays = None
        except Exception:
            # torn/garbage entry: drop it so a future solve rebuilds it
            with contextlib.suppress(OSError):
                path.unlink()
            arrays = None
        if arrays is None:
            with self._lock:
                self.misses += 1
            return None
        # explicit recency bump: os.utime with no times sets BOTH atime
        # and mtime to now, and eviction orders by mtime — atime is
        # unreliable under noatime/relatime mounts (common on servers),
        # where a read alone would never refresh recency
        with contextlib.suppress(OSError):
            os.utime(path)
        with self._lock:
            self.hits += 1
        return arrays

    # -- write ---------------------------------------------------------

    def store(
        self, kind: str, key: tuple, arrays: dict[str, np.ndarray]
    ) -> bool:
        """Persist ``arrays`` under ``(kind, key)`` atomically.

        Failures (read-only filesystem, quota) are swallowed: the tier
        is a cache, never a correctness dependency.  Returns whether
        the entry landed on disk.
        """
        if not self.enabled:
            return False
        digest = key_digest(kind, key)
        meta = {"format": _ENTRY_FORMAT, "kind": kind, "digest": digest}
        root = self.root
        path = self._entry_path(kind, digest, root)
        tmp = path.parent / f".tmp-{os.getpid()}-{digest}.npz"
        try:
            self._prune_stale_versions()
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    __meta__=np.frombuffer(
                        json.dumps(meta).encode(), dtype=np.uint8
                    ),
                    **arrays,
                )
            os.replace(tmp, path)
        except (OSError, ValueError):
            with contextlib.suppress(OSError):
                tmp.unlink()
            return False
        with self._lock:
            self.stores += 1
            if self._index is None or self._index.root != root:
                self._index = _EntryIndex(root)
            self._index.add(path)
            self.evictions += self._index.evict(self.max_bytes)
        return True

    def _prune_stale_versions(self) -> None:
        """Remove entry directories of retired code versions (once per
        process): the version salt already makes them unreachable, so
        they are pure dead weight against the byte budget."""
        with self._lock:
            if self._pruned:
                return
            self._pruned = True
        current = self.root.name
        try:
            siblings = list(self.tier_root.iterdir())
        except OSError:
            return
        for path in siblings:
            if path.is_dir() and path.name != current:
                shutil.rmtree(path, ignore_errors=True)

    # -- observability -------------------------------------------------

    def stats(self) -> DiskCacheStats:
        """Snapshot of this process's counters."""
        with self._lock:
            return DiskCacheStats(
                self.hits, self.misses, self.stores, self.evictions
            )

    def reset_stats(self) -> None:
        """Zero the per-process counters (benchmark arm boundaries)."""
        with self._lock:
            self.hits = self.misses = self.stores = self.evictions = 0
            self._flushed = dict.fromkeys(_COUNTER_NAMES, 0)

    def flush_counters(self) -> None:
        """Fold this process's counter deltas into the advisory
        lifetime counters persisted next to the entries.  Work units
        call this once at exit, and ``usage()`` before reporting;
        ``store()`` does not.  No-op when there is nothing new.

        Best-effort read-modify-replace: concurrent processes may lose
        each other's increments (under-count, never over-count), the
        same contract as the result store's hit counter.
        """
        with self._lock:
            current = {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
            }
            delta = {
                name: current[name] - self._flushed[name] for name in current
            }
            if not any(delta.values()):
                return
            self._flushed = current
        path = self.root / _COUNTERS_NAME
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            doc = {}
        for name, inc in delta.items():
            doc[name] = int(doc.get(name, 0)) + inc
        tmp = path.with_name(f".tmp-{os.getpid()}-{_COUNTERS_NAME}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(doc) + "\n")
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()

    def lifetime(self) -> dict[str, Any]:
        """The persisted lifetime counters and their hit rate.  Reads
        only ``counters.json``: counts this process has not flushed
        yet are not included."""
        try:
            counters = json.loads((self.root / _COUNTERS_NAME).read_text())
        except (OSError, ValueError):
            counters = {}
        lifetime = {name: int(counters.get(name, 0)) for name in _COUNTER_NAMES}
        lookups = lifetime["hits"] + lifetime["misses"]
        return {
            **lifetime,
            "hit_rate": lifetime["hits"] / lookups if lookups else 0.0,
        }

    def usage(self) -> dict[str, Any]:
        """On-disk shape of the tier: entries and bytes, per kind and
        total, plus the lifetime counters (flushed first).  Walks every
        entry, and refreshes this process's index with what it finds."""
        from repro.service.store import store_version

        self.flush_counters()
        root = self.root
        with self._lock:
            self._index = _EntryIndex(root)
            entries = list(self._index.entries.items())
        kinds: dict[str, dict[str, int]] = {}
        for path, (_, size) in entries:
            bucket = kinds.setdefault(
                path.parent.parent.name, {"entries": 0, "bytes": 0}
            )
            bucket["entries"] += 1
            bucket["bytes"] += size
        return {
            "root": str(root),
            "store_version": store_version(),
            "enabled": self.enabled,
            "entries": len(entries),
            "bytes": sum(size for _, (_, size) in entries),
            "max_bytes": self.max_bytes,
            "kinds": kinds,
            "lifetime": self.lifetime(),
        }

    # -- maintenance ---------------------------------------------------

    def wipe(self) -> int:
        """Delete every entry (all versions); returns entries removed."""
        with self._lock:
            self._index = None  # the next store reseeds
        removed = 0
        root = self.tier_root
        if not root.is_dir():
            return 0
        for path in root.rglob("*.npz"):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        for path in sorted(root.iterdir(), reverse=True):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
        return removed


_DISK = DiskSolveCache()


def get_disk_cache() -> DiskSolveCache:
    """The process-wide disk solve cache."""
    return _DISK


def configure_disk_cache(
    root: Path | str | None = None,
    max_bytes: int | None = None,
) -> None:
    """Relocate or resize the global disk tier (on/off is
    ``ExecutionConfig.use_disk_cache``)."""
    if root is not None:
        _DISK._base = Path(root)
        _DISK._pruned = False
    if max_bytes is not None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        _DISK.max_bytes = int(max_bytes)


def disk_cache_stats() -> DiskCacheStats:
    """Counters of the global disk tier (aggregated per work unit into
    ``ScenarioResult.disk_hits`` / ``disk_misses`` / ``disk_evictions``)."""
    return _DISK.stats()


def reset_disk_cache_stats() -> None:
    """Zero the global per-process counters."""
    _DISK.reset_stats()


def wipe_disk_cache() -> int:
    """Delete every persisted solve (``repro store --wipe-solves``)."""
    return _DISK.wipe()


# ----------------------------------------------------------------------
# kind-specific codecs
# ----------------------------------------------------------------------
#
# Payloads are {name: ndarray} documents; scalars travel as 0-d float64
# arrays so the round trip is bit-exact by NumPy's binary format, not by
# decimal text.


def load_dp_makespan(key: tuple):
    """Rebuild a persisted :class:`DPMakespanResult`, or None."""
    arrays = _DISK.load("dp_makespan", key)
    if arrays is None:
        return None
    from repro.core.dp_makespan import DPMakespanResult

    try:
        return DPMakespanResult(
            expected_makespan=float(arrays["expected_makespan"]),
            first_chunk=float(arrays["first_chunk"]),
            u=float(arrays["u"]),
            tau0=float(arrays["tau0"]),
            recovery=float(arrays["recovery"]),
            _v_pre=arrays["v_pre"],
            _c_pre=arrays["c_pre"],
            _v_post=arrays["v_post"],
            _c_post=arrays["c_post"],
        )
    except KeyError:
        return None


def store_dp_makespan(key: tuple, result) -> bool:
    """Persist a :class:`DPMakespanResult` table set."""
    return _DISK.store(
        "dp_makespan",
        key,
        {
            "expected_makespan": np.float64(result.expected_makespan),
            "first_chunk": np.float64(result.first_chunk),
            "u": np.float64(result.u),
            "tau0": np.float64(result.tau0),
            "recovery": np.float64(result.recovery),
            "v_pre": result._v_pre,
            "c_pre": result._c_pre,
            "v_post": result._v_post,
            "c_post": result._c_post,
        },
    )


def load_replan(key: tuple):
    """Rebuild a persisted :class:`DPNextFailureResult`, or None."""
    arrays = _DISK.load("replan", key)
    if arrays is None:
        return None
    from repro.core.dp_nextfailure import DPNextFailureResult

    try:
        return DPNextFailureResult(
            chunks=arrays["chunks"],
            expected_work=float(arrays["expected_work"]),
            u=float(arrays["u"]),
        )
    except KeyError:
        return None


def store_replan(key: tuple, result) -> bool:
    """Persist a :class:`DPNextFailureResult` replan: the schedule and
    its value.  The DP choice table the solver attaches is left out —
    nothing reads it back, and it is ~99% of a replan's bytes."""
    return _DISK.store(
        "replan",
        key,
        {
            "chunks": np.asarray(result.chunks, dtype=float),
            "expected_work": np.float64(result.expected_work),
            "u": np.float64(result.u),
        },
    )
