"""Item-based recommender scored by co-consumption inside item packs.

Every ordered pair (i, j) with i consumed before j inside one pack adds
``1 + 1/H`` to ``score(i, j)``, where H is their positional distance in
that pack, and ``card(i)`` is the number of packs that hold item i. A
profile holds distinct items, so each item lies in one pack of every
profile that holds it: ``card(i)`` is the store's
:meth:`~ciprec.ingest.ProfileStore.item_counts`, which the model reads
and never copies. The pair is counted once per pack, so

    sim(i, j) = score(i, j) / (2 * max(card(i), card(j)))

stays in [0, 1] and hits 1 exactly when every pack containing i or j has
i immediately followed by j.

Scores are exact: ``score[i][j]`` holds the integer sum of the pair's
weights in fixed point, ``ONE + round(ONE / H)`` with ``ONE = 2**40``, so
the order of additions cannot change a bit and a model folded event by
event equals one trained from scratch. ``ONE`` is a power of two, so
dividing by ``2 * ONE * max(card)`` gives the same float as storing
``score / ONE``. A profile holds distinct items, so each user adds at most
2 to a pair's score, and int64 holds the scores of about 4 million users.

The scores come from packs given as arrays by
:func:`~ciprec.ingest.pack_arrays` (the items concatenated, each pack's
size and a mask of the new items; in ``train`` every item is new):
:func:`~ciprec.ingest.pair_positions` lists the forward pairs of the
packs that end at a new item, and one integer sum over their sorted keys
``i << 32 | j`` adds up each pair's weights. :meth:`CipIModel.train`
sums the pairs in runs of whole packs of at most ``_PAIR_BUDGET`` pairs,
which bounds its transient arrays, sums the runs' keys once more, and
then builds each score row with one ``dict`` call, its columns
ascending; ``observe`` adds its sums key by key.

One kernel ranks rows: :meth:`CipIModel._rank` takes score entries laid
out row by row in flat arrays, computes their similarities and ranks
them all with one ``np.lexsort`` by (row, -sim, id).
:meth:`CipIModel._gather` reads any number of score rows into that
layout for :meth:`CipIModel.top_k` and for ``recommend``; ``train``
passes its own sorted keys and sums, which are already in it.

``recommend`` tallies the ids of each profile item's top-k successors
with one ``np.bincount``. Those ids are cached in one ``(items, k)``
array. ``train`` ranks every row into it once, so a trained model serves
its first request as fast as any later one. A fold
(:meth:`CipIModel.observe`) drops only the rows whose top-k *set* can
change, and ``recommend`` ranks again only the dropped rows a profile
holds. The tally reads a row as a set, and a card bump only lowers
similarities, so a row is dropped when one of its scores changed, or
when it has more than k entries and its own card or the card of an item
in its cached set changed. A row of at most k entries holds all of them
whatever their order.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ciprec.ingest import ProfileStore, pack_arrays, pair_positions, run_offsets

ONE = 1 << 40           # fixed-point unit of a score
_PAIR_BUDGET = 1 << 18  # most pairs one fold of train holds at once


class CipIModel:
    """Sparse directed item-item score store plus recommender.

    ``delta`` is the pack gap threshold in seconds (used when updating
    from raw event batches), ``k`` the per-item neighbor list size used
    by :meth:`recommend`. ``_top[i]`` caches the ids of item i's top-k
    successors, padded with -1, and is read only where ``_valid[i]``;
    ``_long[i]`` marks a cached row of more than k entries, the only
    rows a card bump alone can change (see the module docstring).
    :meth:`train` fills the cache for every item, an item with no
    scores holding an empty row; :meth:`recommend` refills only the rows
    that :meth:`observe` dropped.
    """

    kind = "cip-i"

    def __init__(self, delta: int, k: int):
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.delta = delta
        self.k = k
        self.score: dict[int, dict[int, int]] = {}
        self.profiles = ProfileStore(0, 0)
        self._top = np.full((0, k), -1, dtype=np.int64)
        self._valid = np.zeros(0, dtype=bool)
        self._long = np.zeros(0, dtype=bool)

    @classmethod
    def train(cls, store: ProfileStore, delta: int, k: int) -> "CipIModel":
        """Score every user's packs in one fold over existing profiles,
        then rank every item's row into the cache."""
        model = cls(delta, k)
        model.profiles = store
        items, sizes, _ = pack_arrays(store, delta)
        # pairs[s], ends[s]: the pairs and the items of the first s packs
        pairs = np.concatenate(([0], np.cumsum(sizes * (sizes - 1) // 2)))
        ends = np.concatenate(([0], np.cumsum(sizes)))
        keys, sums = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        a = 0
        while a < len(sizes):
            # whole packs up to the budget, and at least one
            b = max(int(np.searchsorted(pairs, pairs[a] + _PAIR_BUDGET, "right")) - 1,
                    a + 1)
            run_keys, run_sums = _pair_sums(items[ends[a]:ends[b]], sizes[a:b])
            keys.append(run_keys)
            sums.append(run_sums)
            a = b
        # the keys of one run are distinct already
        keys, sums = ((keys[-1], sums[-1]) if len(keys) <= 2
                      else _sum_keys(np.concatenate(keys), np.concatenate(sums)))
        # rank every row below num_items from the sorted keys, where an
        # item's row position is its id; a row with no scores is empty
        rows, cols = keys >> 32, keys & 0xFFFFFFFF
        every = np.arange(store.num_items)
        lengths = np.bincount(rows, minlength=len(every))
        model._grow(len(every))
        model._fill(every, lengths, *model._rank(every, rows, cols, sums, lengths, k)[:3])
        # one dict per score row, from that row's slice of the sorted keys
        bounds = [0, *lengths.cumsum().tolist()]
        cols, sums = cols.tolist(), sums.tolist()
        model.score = {i: dict(zip(cols[lo:hi], sums[lo:hi]))
                       for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if lo < hi}
        return model

    def observe(self, batches: dict[int, list[tuple[int, int]]]) -> None:
        """Fold new events into the profiles (see
        :meth:`ProfileStore.extend`), scoring each new item against the
        members of the pack it joins. Produces the same stores as
        retraining on the final profiles."""
        before = self.profiles.extend(batches)
        self._fold(*pack_arrays(self.profiles, self.delta, before))

    def _fold(self, items: np.ndarray, sizes: np.ndarray, new: np.ndarray) -> None:
        """Fold the packs of ``sizes`` concatenated in ``items``: the
        forward pairs that end at an item of the mask ``new`` into
        ``score``, then drop the cached rows whose top-k set can change:
        the store has already counted the new items into the cards."""
        bumped = np.unique(items[new])
        keys, sums = _pair_sums(items, sizes, np.flatnonzero(new))
        score = self.score
        for key, s in zip(keys.tolist(), sums.tolist()):
            row = score.setdefault(key >> 32, {})
            j = key & 0xFFFFFFFF
            row[j] = row.get(j, 0) + s
        self._drop(bumped, keys >> 32)

    def _drop(self, bumped: np.ndarray, rescored: np.ndarray) -> None:
        """Invalidate the cached rows of ``rescored`` items, and the long
        rows whose own card or a cached member's card is in ``bumped``."""
        n = len(self._valid)
        if not n:
            return
        mark = np.zeros(n + 1, dtype=bool)    # slot n stays False: -1 padding
        mark[bumped[bumped < n]] = True
        live = np.flatnonzero(self._valid & self._long)
        self._valid[live[mark[live] | mark[self._top[live]].any(axis=1)]] = False
        self._valid[rescored[rescored < n]] = False

    def _top_rows(self, rows: np.ndarray, k: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rank the score rows of the items ``rows`` at once: each row's
        length, then what :meth:`_rank` returns."""
        r, j, s, lengths = self._gather(rows)
        return (lengths, *self._rank(rows, r, j, s, lengths, k))

    def _gather(self, rows: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read the score rows of the items ``rows`` into flat arrays: for
        every entry, row by row, its row's position in ``rows``, its
        column and its fixed-point sum; then each row's length."""
        score = self.score
        got = [score.get(i, {}) for i in rows.tolist()]
        lengths = np.fromiter(map(len, got), dtype=np.int64, count=len(got))
        size = int(lengths.sum())
        j = np.fromiter(chain.from_iterable(got), dtype=np.int64, count=size)
        s = np.fromiter(chain.from_iterable(r.values() for r in got),
                        dtype=np.int64, count=size)
        return np.arange(len(got)).repeat(lengths), j, s, lengths

    def _rank(self, rows: np.ndarray, r: np.ndarray, j: np.ndarray, s: np.ndarray,
              lengths: np.ndarray, k: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The one ranking kernel. Given score entries as :meth:`_gather`
        lays them out (the rows in order, ``lengths`` entries each), rank
        every row by (-similarity, id) with one ``np.lexsort``. Returns,
        for the first k entries of every row in row order, the row's
        position in ``rows``, the entry's rank, its id and its similarity
        (bit-identical to :meth:`similarity`)."""
        counts = self.profiles.item_counts()
        sim = s / (2.0 * ONE * np.maximum(counts[rows[r]], counts[j]))
        order = np.lexsort((j, -sim, r))      # r is already sorted
        rank = run_offsets(lengths)
        kept = rank < k
        order = order[kept]
        return r[kept], rank[kept], j[order], sim[order]

    def _fill(self, rows: np.ndarray, lengths: np.ndarray, r: np.ndarray,
              rank: np.ndarray, j: np.ndarray) -> None:
        """Cache the ranked top-k ids of the items ``rows``, as
        :meth:`_rank` returns them, and mark those rows valid."""
        self._top[rows] = -1
        self._top[rows[r], rank] = j
        self._valid[rows] = True
        self._long[rows] = lengths > self.k

    def similarity(self, i: int, j: int) -> float:
        """Directed similarity of j following i; 0 without co-consumption."""
        s = self.score.get(i, {}).get(j, 0)
        if s == 0:
            return 0.0
        counts = self.profiles.item_counts()
        return s / (2.0 * ONE * max(counts.item(i), counts.item(j)))

    def top_k(self, i: int, k: int | None = None) -> list[tuple[int, float]]:
        """Top-k successors of item i by similarity, ties by ascending
        item id; items never scored give []. A fresh list each call."""
        _, _, _, j, sim = self._top_rows(np.array([i]), self.k if k is None else k)
        return list(zip(j.tolist(), sim.tolist()))

    def _grow(self, n: int) -> None:
        """Make room in the cache for item ids below ``n``."""
        have = len(self._valid)
        if n <= have:
            return
        n = max(n, 2 * have)
        top = np.full((n, self.k), -1, dtype=np.int64)
        valid, long = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        top[:have], valid[:have], long[:have] = self._top, self._valid, self._long
        self._top, self._valid, self._long = top, valid, long

    def recommend(self, u: int, n: int) -> list[int]:
        """Top-n items tallied over each of u's items' neighbor lists,
        never containing u's items; ties by ascending id. Unknown users
        and empty tallies fall back to global popularity."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        prof = self.profiles.get(u)
        if prof is None:
            return self.profiles.popular(n)
        items = prof.items
        owned = np.asarray(items, dtype=np.int64)
        self._grow(self.profiles.num_items)     # every cached id is a profile item
        missing = np.unique(owned[~self._valid[owned]])
        if len(missing):
            self._fill(missing, *self._top_rows(missing, self.k)[:4])
        # shift by one so the -1 padding lands in the dropped slot 0
        counts = np.bincount(self._top[owned].ravel() + 1,
                             minlength=int(owned.max()) + 2)[1:]
        counts[owned] = 0
        ids = np.flatnonzero(counts)
        if not len(ids):
            return self.profiles.popular(n, set(items))
        ranked = ids[np.lexsort((ids, -counts[ids]))]
        return ranked[:n].tolist()

    @property
    def params(self) -> dict:
        return {"delta": self.delta, "k": self.k}


def _pair_sums(items: np.ndarray, sizes: np.ndarray, ends: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """The forward pairs of the packs of ``sizes`` concatenated in
    ``items`` that end at the positions ``ends`` (default: every one), as
    their distinct keys ``i << 32 | j`` in ascending order and each key's
    summed weight."""
    p, q = pair_positions(sizes, None, ends)
    h = q - p
    weights = ONE + (2 * ONE + h) // (2 * h)      # ONE + round(ONE / h)
    return _sum_keys((items[p] << 32) | items[q], weights)


def _sum_keys(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order and the integer sum of
    each one's ``weights``: exact, so any sort order will do."""
    if not len(keys):
        return keys, weights
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(weights[order], starts)
