"""Version-aware LRU cache of sampled enclosing subgraphs.

Entries are keyed by ``(target, round)`` and hold that view's sampled
subgraph — a private copy of its slice of the sampler's flat batch
arrays, so an entry never keeps the rest of its batch alive — tagged
with the store version at sampling time.  Lookups pass the target's
current ``region_version``: an entry older than the last mutation
affecting the target's neighbourhood is discarded on access (lazy
invalidation), so the cache never serves a subgraph the sampler would
no longer produce.

Because the sampling seed of a ``(target, round)`` is counter-based, a
*valid* cached subgraph is bitwise identical to what re-sampling would
return; augmentation is applied when views are built, from the same
seed — so cache hits change latency, never scores.

Store compaction (folding the delta overlay into the compacted base
index) changes the topology's *representation*, not its content, and
does not bump ``store.version`` — so a compaction invalidates nothing
here: every warm entry keeps serving across compaction boundaries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from ..graph.sampling import SampledSubgraph


@dataclass
class CacheEntry:
    """One cached sampled subgraph for a target/round."""

    subgraph: SampledSubgraph
    version: int                 # store.version at sampling time


class SubgraphCache:
    """Bounded LRU mapping ``(target, round) -> CacheEntry``."""

    def __init__(self, maxsize: int = 4096):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key: Tuple[int, int],
            region_version: int) -> Optional[CacheEntry]:
        """Return a still-valid entry for ``key`` or ``None``.

        ``region_version`` is the store's current region version for the
        entry's target; entries sampled before that version are stale.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.version < region_version:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Tuple[int, int], subgraph: SampledSubgraph,
            version: int) -> CacheEntry:
        """Insert (or refresh) an entry; evicts LRU entries past capacity."""
        entry = CacheEntry(subgraph, version)
        if self.maxsize == 0:
            return entry
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }
