"""ResultCache: a bounded, TTL'd in-memory tier over the §5.4 cache.

The on-disk :class:`~repro.core.cache.DerivationCache` memoizes plan
*subtrees* by content fingerprint so expensive prefixes are shared
across sessions. Serving adds a hotter, stricter need: a repeated
logical query should return without touching the executor at all, and
the entry must die the moment it can be stale. This tier provides
that:

- keyed **semantically** (:func:`repro.serve.keys.result_key`:
  plan fingerprint + session state fingerprint + catalog data
  version), so any register/drop/dictionary change orphans old
  entries;
- **TTL-bounded** — even a semantically valid entry expires after
  ``ttl`` seconds, putting a ceiling on staleness windows the version
  counters cannot see (e.g. an analyst re-running against wall-clock
  data feeds);
- **LRU-bounded** with hit/miss/eviction/expiration counters exposed
  through :meth:`stats` and the service's ``ServiceMetrics``;
- optionally **write-through** to a shared ``DerivationCache`` so a
  restarted service warms from disk.

All operations run under one lock: a read copies the entry reference
out before releasing it, so an eviction racing with that read can
never hand the caller a half-dropped entry.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.cache import CachedResult, DerivationCache
from repro.core.dataset import ScrubJayDataset
from repro.core.semantics import Schema


@dataclass
class ResultEntry:
    """One materialized result plus its bookkeeping."""

    rows: List[Dict[str, Any]]
    schema_json: dict
    name: str
    created_at: float
    #: catalog dataset names the producing plan read (dependency
    #: tracking for invalidate_dataset); empty = unknown provenance
    datasets: tuple = ()

    def to_dataset(self, ctx) -> ScrubJayDataset:
        return ScrubJayDataset.from_rows(
            ctx,
            self.rows,
            Schema.from_json_dict(self.schema_json),
            self.name,
        )


class ResultCache:
    """Semantic LRU+TTL result cache with an optional disk tier.

    Parameters
    ----------
    max_entries:
        In-memory bound; least recently used entries evict first.
    ttl:
        Seconds an entry stays servable; ``None`` disables expiry.
    backing:
        Optional :class:`DerivationCache`: misses fall through to it
        (promoting hits into memory) and puts write through to it.
        The TTL survives the round trip: write-throughs are stamped
        with a wall-clock creation time, promotion re-checks the
        entry's true age (stampless legacy entries are treated as
        expired when a TTL is set), and a memory expiration also
        invalidates the disk copy — the backing tier can never
        resurrect a stale result past the TTL ceiling.
    clock:
        Injectable monotonic clock for tests.
    wall_clock:
        Injectable wall clock (``time.time``) for the backing-entry
        age stamps, which must stay meaningful across restarts.
    """

    def __init__(
        self,
        max_entries: int = 128,
        ttl: Optional[float] = None,
        backing: Optional[DerivationCache] = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self.max_entries = max_entries
        self.ttl = ttl
        self.backing = backing
        self._clock = clock
        self._wall = wall_clock
        self._entries: "OrderedDict[str, ResultEntry]" = OrderedDict()
        #: dataset name -> keys of entries whose plan read it
        self._deps: Dict[str, set] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.backing_hits = 0
        self.invalidations = 0

    # ------------------------------------------------------------------

    def _expired(self, entry: ResultEntry) -> bool:
        return (
            self.ttl is not None
            and self._clock() - entry.created_at > self.ttl
        )

    def get(self, key: str, ctx) -> Optional[ScrubJayDataset]:
        """A live dataset for ``key`` (re-parallelized into ``ctx``),
        or None. Recency refresh is atomic with the read."""
        entry: Optional[ResultEntry] = None
        expired_here = False
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                if self._expired(found):
                    del self._entries[key]
                    self._unindex(key, found)
                    self.expirations += 1
                    expired_here = True
                else:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    entry = found
        if entry is not None:
            return entry.to_dataset(ctx)
        if expired_here:
            # Kill the write-through copy too, or the fallthrough
            # below would re-promote the stale entry with a fresh TTL.
            if self.backing is not None:
                self.backing.invalidate(key)
            with self._lock:
                self.misses += 1
            return None

        # Fall through to the shared on-disk tier, if any.
        if self.backing is not None:
            cold = self.backing.get(key)
            if cold is not None:
                age = self._backing_age(cold)
                if self.ttl is not None and (age is None or age > self.ttl):
                    # Expired (or unknown-age legacy entry) on disk:
                    # the TTL ceiling holds across restarts too.
                    self.backing.invalidate(key)
                    with self._lock:
                        self.expirations += 1
                        self.misses += 1
                    return None
                promoted = ResultEntry(
                    rows=cold.rows,
                    schema_json=cold.schema_json,
                    name=cold.name,
                    # Back-date so the remaining TTL reflects the
                    # entry's true age, not the promotion instant.
                    created_at=self._clock() - (age or 0.0),
                )
                with self._lock:
                    self.hits += 1
                    self.backing_hits += 1
                    self._insert(key, promoted)
                return promoted.to_dataset(ctx)
        with self._lock:
            self.misses += 1
        return None

    def _backing_age(self, cold: CachedResult) -> Optional[float]:
        """Seconds since the backing entry was written, or None when
        the entry predates creation stamps."""
        stamp = getattr(cold, "created_at_wall", None)
        if stamp is None:
            return None
        return max(0.0, self._wall() - stamp)

    def put(
        self,
        key: str,
        dataset: ScrubJayDataset,
        datasets: Optional[List[str]] = None,
    ) -> ResultEntry:
        """Materialize ``dataset`` under ``key`` (and write through to
        the disk tier when configured) and return the entry.
        ``datasets`` names the catalog inputs the producing plan read,
        so :meth:`invalidate_dataset` can evict exactly the dependents
        of an appended-to dataset."""
        entry = ResultEntry(
            rows=dataset.collect(),
            schema_json=dataset.schema.to_json_dict(),
            name=dataset.name,
            created_at=self._clock(),
            datasets=tuple(datasets or ()),
        )
        with self._lock:
            self._insert(key, entry)
        if self.backing is not None:
            self.backing.put_entry(
                key,
                CachedResult(
                    rows=entry.rows,
                    schema_json=entry.schema_json,
                    name=entry.name,
                    created_at_wall=self._wall(),
                ),
            )
        return entry

    def _insert(self, key: str, entry: ResultEntry) -> None:
        # caller holds self._lock
        old = self._entries.get(key)
        if old is not None:
            self._unindex(key, old)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        for name in entry.datasets:
            self._deps.setdefault(name, set()).add(key)
        while len(self._entries) > self.max_entries:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._unindex(evicted_key, evicted)
            self.evictions += 1

    def _unindex(self, key: str, entry: ResultEntry) -> None:
        # caller holds self._lock
        for name in entry.datasets:
            keys = self._deps.get(name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._deps[name]

    def invalidate_dataset(self, name: str) -> int:
        """Evict every entry whose producing plan read dataset
        ``name`` (and its write-through copies); unrelated entries
        survive. The fix for the append story: before this, growing a
        dataset meant drop + re-register, which bumps
        ``catalog_version`` and orphans *every* tenant's cached
        results fleet-wide. A feed advance calls this instead —
        eviction scoped to actual dependents. Returns how many
        entries were dropped.
        """
        with self._lock:
            keys = list(self._deps.get(name, ()))
            for key in keys:
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self._unindex(key, entry)
            self.invalidations += len(keys)
        if self.backing is not None:
            for key in keys:
                self.backing.invalidate(key)
        return len(keys)

    # ------------------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._deps.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "backing_hits": self.backing_hits,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
                "hit_rate": (self.hits / total) if total else None,
                "entries": len(self._entries),
                "ttl": self.ttl,
            }
