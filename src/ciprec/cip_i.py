"""Item-based recommender scored by co-consumption inside item packs.

Every ordered pair (i, j) with i consumed before j inside one pack adds
``1 + 1/H`` to ``score(i, j)``, where H is their positional distance in
that pack, and each pack an item appears in bumps ``card(i)`` by one.
The pair is counted once per pack, so

    sim(i, j) = score(i, j) / (2 * max(card(i), card(j)))

stays in [0, 1] and hits 1 exactly when every pack containing i or j has
i immediately followed by j.

Both stores come from one fold: :func:`~ciprec.ingest.window_pairs`
lists the forward pairs of the packs (for :meth:`CipIModel.observe`,
only pairs ending at a new item), one ``np.add.at`` over their ordered
keys ``i << 32 | j`` adds each pair's weight to the scores, and one
``np.bincount`` counts the new items into the cards.

``recommend`` tallies the ids of each profile item's top-k successors.
Those id lists are cached per item and the whole cache is cleared on
every score or card change (:meth:`CipIModel.update_scores`,
:meth:`CipIModel.observe`), so frozen serving ranks each row once.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Sequence

import numpy as np

from ciprec.ingest import ProfileStore, all_cips, window_pairs


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
        """Score every user's packs in one fold over existing profiles."""
        model = cls(delta, k)
        model.profiles = store
        model._fold([pack.items for pack in all_cips(store, delta)])
        return model

    def update_scores(self, items: Sequence[int]) -> None:
        """Fold one pack into the score and cardinality stores.

        Raises ValueError if the pack repeats an item.
        """
        if len(set(items)) != len(items):
            raise ValueError("pack repeats an item")
        self._fold([items])

    def observe(self, batches: dict[int, list[tuple[int, int]]]) -> None:
        """Fold new events into the profiles (see
        :meth:`ProfileStore.extend`), scoring each new item against the
        members of the pack it joins. Produces the same stores as
        retraining on the final profiles, up to float summation order."""
        packs, first = [], []
        for u, start in self.profiles.extend(batches).items():
            prof = self.profiles.profiles[u]
            bounds = prof.cip_boundaries(self.delta) + [len(prof)]
            for b, e in zip(bounds, bounds[1:]):
                if e > start:                  # the pack holds a new item
                    packs.append(prof.items[b:e])
                    first.append(max(start - b, 0))
        self._fold(packs, first)

    def _fold(self, packs: list[Sequence[int]], first: list[int] | None = None) -> None:
        """Fold each pack's forward pairs ending at or after ``first[s]``
        into ``score`` and the items from there on into ``card``."""
        self._top.clear()
        items, p, q = window_pairs(packs, None, first)
        fresh = items if first is None else np.fromiter(
            chain.from_iterable(s[f:] for s, f in zip(packs, first)), dtype=np.int64)
        counts = np.bincount(fresh)
        for i in np.flatnonzero(counts).tolist():
            self.card[i] = self.card.get(i, 0) + int(counts[i])
        if not len(p):
            return
        pairs = (items[p] << 32) | items[q]
        keys = np.sort(pairs)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        ij = [divmod(key, 1 << 32) for key in keys.tolist()]
        sums = np.array([self.score.get(i, {}).get(j, 0.0) for i, j in ij])
        # one pair at a time, 1 and then 1/(q - p): a sum of the weights
        # rounds otherwise, and ulp gaps reorder tied similarities
        np.add.at(sums, np.searchsorted(keys, pairs).repeat(2),
                  np.column_stack((np.ones(len(p)), 1.0 / (q - p))).ravel())
        for (i, j), s in zip(ij, sums.tolist()):
            self.score.setdefault(i, {})[j] = s

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
