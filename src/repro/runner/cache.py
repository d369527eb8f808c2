"""Content-addressed on-disk cache of completed job results.

One pickle file per :meth:`repro.runner.Job.key` under
``~/.cache/repro/`` (overridable with the ``REPRO_CACHE_DIR`` environment
variable or an explicit directory).  The key already encodes the full
config, the run parameters and the package's code digest, so lookups are
exact: a hit is byte-for-byte the metrics a fresh run would produce, and
any config or code change misses cleanly.

The cache is safe to share between concurrent worker processes — it is
the artifact store distributed campaigns (:mod:`repro.runner.campaign`)
are built on:

* Entry writes go through a temp file + atomic rename, so readers never
  observe a torn entry; entries that still fail to unpickle (stale
  formats, partial disk writes) are deleted and treated as misses.  An
  entry that cannot be opened or read right now (``EMFILE``, ``EIO``)
  is a miss that keeps the file: a transient error never destroys a
  stored result.
* A process that dies between write and rename leaves a ``*.tmp<pid>``
  orphan behind.  :meth:`ResultCache.stats` counts such orphans and
  :meth:`ResultCache.clear` sweeps them.
* Usage counters (``hits`` / ``misses`` / ``batches``) are recorded as
  per-batch *delta* records appended with ``O_APPEND`` to a
  ``_usage_deltas.jsonl`` sidecar — a single appended line per batch, so
  concurrent runners never lose each other's read-modify-write the way a
  shared counter-file rewrite would.  :meth:`usage_stats` folds the
  deltas.  The counters stay advisory: a corrupt or missing sidecar never
  affects correctness, and :meth:`ResultCache.clear` resets them.
* With ``max_bytes`` set the store is size-bounded: :meth:`put` evicts
  least-recently-used entries (file mtime — refreshed on every
  :meth:`get` hit and :meth:`touch`) until the store fits, never
  evicting the entry just written.
* Campaigns treat *store entry presence* as the done-authority (see
  :mod:`repro.runner.campaign`), so eviction must never silently undo a
  completed unit: ``protect_keys`` names keys (directly or through a
  callable, e.g. a campaign-manifest loader) that :meth:`evict` always
  skips, keeping the size bound and the done-authority invariant
  compatible.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from collections.abc import Callable, Collection, Iterable
from pathlib import Path
from typing import NamedTuple

from repro.core.metrics import RunMetrics

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bumped when the on-disk payload layout changes.
CACHE_FORMAT = 1

#: The usage-counter sidecar (never counted as a cache entry).
USAGE_DELTAS_NAME = "_usage_deltas.jsonl"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


class EntryId(NamedTuple):
    """Which file a key's entry is, as :meth:`ResultCache.entry_id` sees it.

    :meth:`ResultCache.put` renames a new file over an entry (a new
    inode), and a truncation or in-place rewrite moves its size or
    mtime, so an entry changed since an ``EntryId`` was taken compares
    unequal to it.
    """

    ino: int
    size: int
    mtime_ns: int


class CacheStats(NamedTuple):
    """What :meth:`ResultCache.stats` sees on disk."""

    entries: int
    total_bytes: int
    #: ``*.tmp<pid>`` files orphaned by a process that died mid-write.
    orphans: int


def _append_jsonl(path: Path, record: dict) -> None:
    """Append one JSON line with a single ``O_APPEND`` write.

    POSIX guarantees the append offset per write; emitting the whole line
    in one short write keeps concurrent appenders from interleaving, so
    this is the multi-process-safe primitive every sidecar uses.  A torn
    final line left by a killed writer is terminated first, so it cannot
    swallow the record appended after it.
    """
    data = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        os.write(fd, data)
    finally:
        os.close(fd)


def _read_jsonl(path: Path) -> list[dict]:
    """Parse a JSONL sidecar, skipping torn or corrupt lines."""
    records: list[dict] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return records
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn final line from a killed writer
        if isinstance(record, dict):
            records.append(record)
    return records


class ResultCache:
    """Maps job keys to pickled :class:`~repro.core.metrics.RunMetrics`.

    ``max_bytes`` (optional) size-bounds the store: every :meth:`put`
    evicts least-recently-used entries until the total fits.
    ``protect_keys`` (a collection of keys, or a zero-argument callable
    returning one) names entries :meth:`evict` must never delete — the
    campaign layer passes its manifest keys so a size-bounded shared
    store cannot evict results a live campaign's ledger already counts
    as done.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_bytes: int | None = None,
        protect_keys: Collection[str] | Callable[[], Collection[str]] | None = None,
    ) -> None:
        self.directory = (
            Path(directory).expanduser() if directory else default_cache_dir()
        )
        self.max_bytes = max_bytes
        self.protect_keys = protect_keys

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # ------------------------------------------------------------------
    def get(self, key: str) -> RunMetrics | None:
        """Return the cached metrics for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except OSError:
            return None  # absent, or unreadable for now: keep the entry
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self._discard(path)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != CACHE_FORMAT
            or not isinstance(payload.get("metrics"), RunMetrics)
        ):
            self._discard(path)
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return payload["metrics"]

    def entry_id(self, key: str) -> EntryId | None:
        """The :class:`EntryId` of ``key``'s entry file; None when absent.

        One ``stat``, no unpickle: a present but corrupt entry has an id
        too, and only :meth:`get` finds it out.
        """
        try:
            stat = os.stat(self._path(key))
        except OSError:
            return None
        return EntryId(stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def touch(self, key: str, seen: EntryId) -> EntryId:
        """Refresh ``key``'s LRU recency as a :meth:`get` hit does.

        Stamps the entry's mtime with an explicit time and returns
        ``seen`` carrying that stamp, so a caller holding the id can
        tell an untouched entry from a changed one without another
        ``stat``.  A filesystem that keeps coarser stamps makes the
        returned id never match again: a lost shortcut, not a wrong
        answer.  An entry that is gone returns ``seen`` unchanged.
        """
        stamp = time.time_ns()  # noqa: REP001 - LRU recency is host time
        try:
            os.utime(self._path(key), ns=(stamp, stamp))
        except OSError:
            return seen
        return seen._replace(mtime_ns=stamp)

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` (no unpickle check)."""
        return self._path(key).is_file()

    def put(self, key: str, metrics: RunMetrics) -> None:
        """Store ``metrics`` under ``key`` (atomic replace)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        with tmp.open("wb") as handle:
            pickle.dump(
                {"format": CACHE_FORMAT, "key": key, "metrics": metrics},
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        tmp.replace(path)
        if self.max_bytes is not None:
            self.evict(self.max_bytes, protect=key)

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """Cache entry files, sorted for deterministic iteration."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.pkl"))

    def orphan_temps(self) -> list[Path]:
        """``*.tmp<pid>`` files left by processes killed mid-write."""
        if not self.directory.is_dir():
            return []
        return sorted(
            path for path in self.directory.glob("*.tmp*")
            if not path.name.endswith(".pkl")
        )

    def clear(self) -> int:
        """Delete every entry, orphaned temp file and ``_*.jsonl`` sidecar.

        Returns the number of *entries* removed (orphans and sidecars are
        swept but not counted, matching what ``cache info`` reports).
        """
        removed = 0
        for path in self.entries():
            if self._discard(path):
                removed += 1
        for path in self.orphan_temps():
            self._discard(path)
        if self.directory.is_dir():
            for path in self.directory.glob("_*.jsonl"):
                self._discard(path)
        return removed

    def evict(
        self, max_bytes: int, protect: str | Iterable[str] | None = None
    ) -> list[str]:
        """Delete least-recently-used entries until the store fits.

        Recency is the entry file's mtime (refreshed by :meth:`get`
        hits).  ``protect`` names keys never evicted — :meth:`put`
        passes the key it just wrote, so a single oversized entry is
        stored rather than thrashed — and the instance-level
        ``protect_keys`` (e.g. a campaign's manifest keys) are honoured
        on top: a completed campaign unit stays present, because store
        presence is the campaign's done-authority.  Returns the evicted
        keys.
        """
        protected: set[str] = set()
        if isinstance(protect, str):
            protected.add(protect)
        elif protect is not None:
            protected.update(protect)
        protected.update(self._protected_keys())
        aged: list[tuple[float, int, Path]] = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            total += stat.st_size
            aged.append((stat.st_mtime, stat.st_size, path))
        evicted: list[str] = []
        aged.sort(key=lambda item: (item[0], item[2].name))
        for mtime, size, path in aged:
            if total <= max_bytes:
                break
            key = path.name[: -len(".pkl")]
            if key in protected:
                continue
            if self._discard(path):
                total -= size
                evicted.append(key)
        return evicted

    def _protected_keys(self) -> Collection[str]:
        """Resolve ``protect_keys`` (callable or plain collection)."""
        if self.protect_keys is None:
            return ()
        if callable(self.protect_keys):
            return self.protect_keys()
        return self.protect_keys

    # ------------------------------------------------------------------
    def record_usage(self, hits: int = 0, misses: int = 0) -> None:
        """Append one batch's lookup outcome as a delta record.

        ``O_APPEND`` of a single line per batch means concurrent runners
        finishing batches at the same moment each land their own delta —
        no read-modify-write window to lose counts in.  Advisory only:
        any I/O failure is swallowed, because the sidecar must never be
        able to fail an actual campaign.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            _append_jsonl(
                self.directory / USAGE_DELTAS_NAME,
                {"hits": hits, "misses": misses, "batches": 1},
            )
        except OSError:
            pass

    def usage_stats(self) -> dict[str, int]:
        """Lifetime lookup counters: ``hits``, ``misses``, ``batches``.

        Folds the delta sidecar; torn or corrupt records are skipped.
        """
        usage = {"hits": 0, "misses": 0, "batches": 0}
        for delta in _read_jsonl(self.directory / USAGE_DELTAS_NAME):
            for key in usage:
                value = delta.get(key)
                if isinstance(value, int) and value >= 0:
                    usage[key] += value
        return usage

    def stats(self) -> CacheStats:
        """Entry count, total entry bytes, and orphaned temp files."""
        total = 0
        entries = self.entries()
        for path in entries:
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheStats(len(entries), total, len(self.orphan_temps()))

    @staticmethod
    def _discard(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False
