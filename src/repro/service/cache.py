"""The memoizing result store: thread-safe LRU with an optional disk tier.

Entries are JSON-compatible result payloads (the ``result`` fragment of a
service response) keyed by :class:`~repro.service.keys.RequestKey`.
Storing the *encoded* payload — not live objects — is deliberate: a cache
hit replays exactly the bytes the first solve produced, so two equivalent
requests observe byte-identical schedules regardless of which one was
computed.

The in-memory tier is a bounded LRU (``OrderedDict`` + lock) with
hit/miss/eviction counters.  The optional disk tier writes one atomic
JSON file per entry (``<digest>.json`` written via a temp file +
``os.replace``) under a cache directory, so results survive restarts and
can be shared by multiple service processes on one host.  The two tiers
are read by two calls: :meth:`ResultCache.get` probes memory only, so an
event loop can call it, and :meth:`ResultCache.load` reads the disk for
a memory miss off the loop and re-populates the LRU on success.

Crash safety: a node killed mid-write (or a disk hiccup) can leave a
corrupt or truncated entry behind.  Such files must never take the node
down or poison lookups — they are *quarantined*: moved to
``<cache_dir>/quarantine/``, logged to stderr, and counted in the
``quarantined`` stats field.  The startup scan sweeps the whole directory
once so a crashed node boots clean; lookups quarantine lazily whatever
the scan could not see (e.g. entries written by a sibling node that
crashed later).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.exceptions import ServiceError
from repro.service.codec import dumps
from repro.service.keys import RequestKey

__all__ = ["CacheStats", "ResultCache"]


class CacheStats:
    """A point-in-time snapshot of cache counters (plain attributes)."""

    def __init__(
        self,
        *,
        size: int,
        capacity: int,
        hits: int,
        misses: int,
        evictions: int,
        disk_hits: int,
        disk_entries: int | None,
        quarantined: int = 0,
    ) -> None:
        self.size = size
        self.capacity = capacity
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.disk_hits = disk_hits
        self.disk_entries = disk_entries
        self.quarantined = quarantined

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible rendering for ``/v1/stats``."""
        return {
            "size": self.size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "disk_hits": self.disk_hits,
            "disk_entries": self.disk_entries,
            "quarantined": self.quarantined,
        }


class ResultCache:
    """Thread-safe LRU of result payloads, optionally backed by disk.

    Parameters
    ----------
    capacity:
        Maximum number of in-memory entries; the least-recently-used entry
        is evicted when a put would exceed it.
    cache_dir:
        Optional directory for the persistent tier.  Created on first use;
        entries are atomic JSON files named by the key digest.
    """

    def __init__(self, capacity: int = 1024, cache_dir: str | Path | None = None) -> None:
        if capacity <= 0:
            raise ServiceError(f"cache capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._dir = Path(cache_dir) if cache_dir is not None else None
        self._lock = threading.Lock()
        self._entries: OrderedDict[RequestKey, dict[str, Any]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_hits = 0
        self._quarantined = 0
        self._startup_scan()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #

    def get(self, key: RequestKey) -> dict[str, Any] | None:
        """The memory tier's payload for ``key``, or ``None``.

        Never touches the disk, so it is safe to call on an event loop.
        A hit refreshes LRU recency.  With a disk tier configured, a
        memory miss is not yet a miss: :meth:`load` reads the disk for
        it and counts the outcome.  Counters: a lookup satisfied by
        either tier is one *hit*; a lookup satisfied by neither is one
        *miss*.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return dict(entry)
            if self._dir is None:
                self._misses += 1
            return None

    def load(self, key: RequestKey) -> dict[str, Any] | None:
        """The disk tier's payload for a key :meth:`get` missed, or ``None``.

        Blocking file I/O: call it off the event loop (the service reads
        it on the miss's executor worker).  A disk hit is promoted back
        into memory.  Without a disk tier this returns ``None`` at once
        (:meth:`get` has already counted the miss).
        """
        if self._dir is None:
            return None
        payload = self._disk_get(key)
        with self._lock:
            if payload is not None:
                self._hits += 1
                self._disk_hits += 1
                self._put_locked(key, payload)
                return dict(payload)
            self._misses += 1
            return None

    def put(self, key: RequestKey, payload: dict[str, Any]) -> None:
        """Store a result payload under ``key`` (both tiers)."""
        with self._lock:
            self._put_locked(key, dict(payload))
        self._disk_put(key, payload)

    def _put_locked(self, key: RequestKey, payload: dict[str, Any]) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = payload
            return
        self._entries[key] = payload
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        """Drop every in-memory entry (disk files are left in place)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------ #
    # Disk tier
    # ------------------------------------------------------------------ #

    def _disk_path(self, key: RequestKey) -> Path | None:
        if self._dir is None:
            return None
        return self._dir / f"{key.digest()}.json"

    def _startup_scan(self) -> None:
        """Quarantine corrupt disk entries at boot instead of failing later.

        A node killed mid-write (the chaos harness does exactly this) may
        leave truncated JSON behind; sweeping once at construction means a
        restarted node starts serving immediately with a clean tier.
        """
        if self._dir is None or not self._dir.is_dir():
            return
        for path in sorted(self._dir.glob("*.json")):
            if path.name.startswith("."):
                continue
            try:
                payload = json.loads(path.read_text())
                ok = isinstance(payload, dict)
            except ValueError:
                ok = False
            except OSError:
                continue
            if not ok:
                self._quarantine(path)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry to ``<cache_dir>/quarantine/`` and count it."""
        assert self._dir is not None
        target = self._dir / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return  # cannot even remove it; lookups keep treating it as a miss
        with self._lock:
            self._quarantined += 1
        sys.stderr.write(
            f"repro.service.cache: quarantined corrupt cache entry "
            f"{path.name} -> {target}\n"
        )

    def _disk_get(self, key: RequestKey) -> dict[str, Any] | None:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            payload = json.loads(path.read_text())
        except OSError:
            # Missing/unreadable file is a plain miss.
            return None
        except ValueError:
            # A torn/corrupt entry (crashed writer, disk fault) must never
            # poison lookups or crash the node: quarantine it and miss.
            self._quarantine(path)
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        return payload

    def _disk_put(self, key: RequestKey, payload: dict[str, Any]) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=".tmp-", suffix=".json", dir=path.parent
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(dumps(payload))
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            raise ServiceError(f"cannot persist cache entry to {path}: {exc}") from exc

    def flush(self) -> int:
        """Ensure every in-memory entry is present on disk; returns writes.

        Disk puts are synchronous, so this is normally a no-op; it backs
        the graceful-drain contract ("flush the disk cache") by catching
        entries whose earlier disk write failed transiently (e.g. a full
        disk that has since recovered).  Without a disk tier it returns 0.
        """
        if self._dir is None:
            return 0
        with self._lock:
            snapshot = list(self._entries.items())
        written = 0
        for key, payload in snapshot:
            path = self._disk_path(key)
            assert path is not None
            if not path.exists():
                self._disk_put(key, payload)
                written += 1
        return written

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> CacheStats:
        """A consistent snapshot of all counters."""
        disk_entries: int | None = None
        if self._dir is not None:
            try:
                disk_entries = sum(
                    1 for p in self._dir.glob("*.json") if not p.name.startswith(".")
                )
            except OSError:
                disk_entries = None
        with self._lock:
            return CacheStats(
                size=len(self._entries),
                capacity=self._capacity,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                disk_hits=self._disk_hits,
                disk_entries=disk_entries,
                quarantined=self._quarantined,
            )
