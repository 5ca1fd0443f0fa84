"""Item-based recommender scored by co-consumption inside item packs.

Every ordered pair (i, j) with i consumed before j inside one pack adds
``1 + 1/H`` to ``score(i, j)``, where H is their positional distance in
that pack, and each pack an item appears in bumps ``card(i)`` by one.
The pair is counted once per pack, so

    sim(i, j) = score(i, j) / (2 * max(card(i), card(j)))

stays in [0, 1] and hits 1 exactly when every pack containing i or j has
i immediately followed by j.

``recommend`` tallies the ids of each profile item's top-k successors.
Those id lists are cached per item and the whole cache is cleared on
every score or card change (:meth:`CipIModel.update_scores`,
:meth:`CipIModel.observe`), so frozen serving ranks each row once.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ciprec.ingest import ProfileStore


class CipIModel:
    """Sparse directed item-item score store plus recommender.

    ``delta`` is the pack gap threshold in seconds (used when updating
    from raw event batches), ``k`` the per-item neighbor list size used
    by :meth:`recommend`. ``_top`` caches the successor ids each
    recommendation tallies; it is emptied whenever a score or a card
    changes, since a card bump reorders every row holding that column.
    """

    kind = "cip-i"

    def __init__(self, delta: int, k: int):
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.delta = delta
        self.k = k
        self.score: dict[int, dict[int, float]] = {}
        self.card: dict[int, int] = {}
        self.profiles = ProfileStore(0, 0)
        self._top: dict[int, np.ndarray] = {}

    @classmethod
    def train(cls, store: ProfileStore, delta: int, k: int) -> "CipIModel":
        """Score every user's packs in one pass over existing profiles."""
        model = cls(delta, k)
        model.profiles = store
        for u in sorted(store.profiles):
            for pack in store.profiles[u].partition(delta):
                model.update_scores(pack.items)
        return model

    def update_scores(self, items: Sequence[int]) -> None:
        """Fold one pack into the score and cardinality stores.

        Raises ValueError if the pack repeats an item.
        """
        if len(set(items)) != len(items):
            raise ValueError("pack repeats an item")
        self._top.clear()
        for i in items:
            self.card[i] = self.card.get(i, 0) + 1
        for p in range(len(items) - 1):
            row = self.score.setdefault(items[p], {})
            for q in range(p + 1, len(items)):
                j = items[q]
                row[j] = row.get(j, 0.0) + 1.0 + 1.0 / (q - p)

    def observe(self, batches: dict[int, list[tuple[int, int]]]) -> None:
        """Fold new events into the profiles (see
        :meth:`ProfileStore.extend`), scoring each new item against the
        members of the pack it joins. Produces exactly the same stores as
        retraining on the final profiles."""
        self._top.clear()
        delta = self.delta
        for u, start in self.profiles.extend(batches).items():
            prof = self.profiles.profiles[u]
            items, ts = prof.items, prof.ts
            if start == len(items):
                continue
            # the pack the first new item joins: walk back while gaps <= delta
            lo = start
            while lo > 0 and ts[lo] <= ts[lo - 1] + delta:
                lo -= 1
            for q in range(start, len(items)):
                if q > start and ts[q] > ts[q - 1] + delta:
                    lo = q
                item = items[q]
                for p in range(lo, q):
                    row = self.score.setdefault(items[p], {})
                    row[item] = row.get(item, 0.0) + 1.0 + 1.0 / (q - p)
                self.card[item] = self.card.get(item, 0) + 1

    def similarity(self, i: int, j: int) -> float:
        """Directed similarity of j following i; 0 without co-consumption."""
        s = self.score.get(i, {}).get(j, 0.0)
        if s == 0.0:
            return 0.0
        return s / (2.0 * max(self.card.get(i, 0), self.card.get(j, 0)))

    def top_k(self, i: int, k: int | None = None) -> list[tuple[int, float]]:
        """Top-k successors of item i by similarity, ties by ascending
        item id; items never scored give []. A fresh list each call."""
        row = self.score.get(i)
        if not row:
            return []
        card = self.card
        ci = card.get(i, 0)
        # similarity(i, j) inlined; must stay bit-identical to it
        scored = [(j, s / (2.0 * max(ci, card.get(j, 0))))
                  for j, s in row.items() if s > 0.0]
        return heapq.nsmallest(self.k if k is None else k, scored,
                               key=lambda t: (-t[1], t[0]))

    def recommend_for_profile(self, items: Sequence[int], n: int) -> list[int]:
        """Top-n items tallied over each profile item's neighbor list,
        never containing profile items; ties by ascending id. Empty
        tallies (and empty profiles) fall back to global popularity."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if len(items) == 0:
            return self.profiles.popular(n)
        top = self._top
        lists = []
        for i in items:
            succ = top.get(i)
            if succ is None:
                succ = top[i] = np.array([j for j, _ in self.top_k(i)],
                                         dtype=np.int64)
            lists.append(succ)
        tally = np.concatenate(lists)
        owned = np.asarray(items, dtype=np.int64)
        counts = np.bincount(tally, minlength=int(owned.max()) + 1)
        counts[owned] = 0
        ids = np.flatnonzero(counts)
        if not len(ids):
            return self.profiles.popular(n, set(items))
        ranked = ids[np.lexsort((ids, -counts[ids]))]
        return ranked[:n].tolist()

    def recommend(self, u: int, n: int) -> list[int]:
        prof = self.profiles.get(u)
        return self.recommend_for_profile(prof.items if prof else [], n)

    @property
    def params(self) -> dict:
        return {"delta": self.delta, "k": self.k}
