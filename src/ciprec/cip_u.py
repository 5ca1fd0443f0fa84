"""User-based neighborhood recommender over consumed item packs.

Two users are similar when their profiles share many "hammock pairs":
unordered item pairs that both consumed within ``delta_h`` positions of
each other in their own profiles. The similarity is

    sim(u, v) = 1 - (1 - [P_u = P_v]) * exp(-|HP(u, v)|)

where [P_u = P_v] is 1 iff the two profiles are identical item sequences.
The pair store is incremental: each batch of new events only touches the
pairs whose common-item set actually grew, and because profiles are
append-only the positions of old items never move, so counting just the
new hammock pairs reproduces the from-scratch count exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from ciprec.ingest import ProfileStore, UserProfile


def hammock_distance(profile: UserProfile, i: int, j: int) -> int:
    """Positional distance between two items of one profile."""
    try:
        return abs(profile.pos[i] - profile.pos[j])
    except KeyError as exc:
        raise ValueError(f"item {exc.args[0]} not in profile of user {profile.user}") from None


def hammock_pairs(pu: UserProfile, pv: UserProfile, delta_h: int) -> set[tuple[int, int]]:
    """All unordered item pairs common to both profiles and within
    ``delta_h`` positions in each. Brute force; the incremental store in
    :class:`CipUModel` must agree with this exactly."""
    if delta_h < 0:
        raise ValueError(f"delta_h must be >= 0, got {delta_h}")
    common = sorted(set(pu.pos) & set(pv.pos))
    out = set()
    for a in range(len(common)):
        i = common[a]
        for b in range(a + 1, len(common)):
            j = common[b]
            if (abs(pu.pos[i] - pu.pos[j]) <= delta_h
                    and abs(pv.pos[i] - pv.pos[j]) <= delta_h):
                out.add((i, j))
    return out


def pair_similarity(hp_count: int, profiles_equal: bool) -> float:
    """Similarity from a hammock-pair count and the equality flag."""
    if profiles_equal:
        return 1.0
    return 1.0 - float(np.exp(-float(hp_count)))


@dataclass(frozen=True)
class UserPairState:
    """Materialized view of one user pair's incremental state."""

    u: int
    v: int
    common_items: tuple[int, ...]
    hp_count: int
    profiles_equal: bool

    @property
    def similarity(self) -> float:
        return pair_similarity(self.hp_count, self.profiles_equal)


class CipUModel:
    """Incremental user-user pair store plus neighborhood recommender.

    ``k`` is the neighborhood size used by :meth:`recommend`. Only user
    pairs with at least one common item are materialized; per pair the
    store keeps just the hammock-pair count (common items and the
    equality flag are derived from the profiles on demand).
    """

    kind = "cip-u"

    def __init__(self, delta_h: int, k: int, num_items: int = 0):
        if delta_h < 0:
            raise ValueError(f"delta_h must be >= 0, got {delta_h}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.delta_h = delta_h
        self.k = k
        self.profiles = ProfileStore(0, num_items)
        self._cap = max(1, num_items)
        self._pos: dict[int, np.ndarray] = {}
        self._hp: dict[int, dict[int, int]] = {}

    @classmethod
    def train(cls, store: ProfileStore, delta_h: int, k: int) -> "CipUModel":
        """Build the pair store from existing profiles in one batch."""
        model = cls(delta_h, k, store.num_items)
        batches = {u: list(zip(p.items, p.ts)) for u, p in store.profiles.items()}
        model.observe(batches)
        model.profiles.user_ids = list(store.user_ids)
        model.profiles.item_ids = list(store.item_ids)
        model.profiles.num_users = max(model.profiles.num_users, store.num_users)
        model.profiles.num_items = max(model.profiles.num_items, store.num_items)
        return model

    def _grow(self, cap: int) -> None:
        if cap <= self._cap:
            return
        cap = max(cap, 2 * self._cap)
        for u, arr in self._pos.items():
            fresh = np.full(cap, -1, dtype=np.int32)
            fresh[: len(arr)] = arr
            self._pos[u] = fresh
        self._cap = cap

    def _pos_of(self, u: int) -> np.ndarray:
        arr = self._pos.get(u)
        if arr is None:
            arr = self._pos[u] = np.full(self._cap, -1, dtype=np.int32)
        return arr

    def observe(self, batches: dict[int, list[tuple[int, int]]]) -> None:
        """Apply one batch of new events, given as per-user time-ordered
        ``(item, ts)`` lists (see :meth:`ProfileStore.extend`). The result
        is identical to rebuilding the store from the final profiles."""
        old_len = self.profiles.extend(batches)
        self._grow(self.profiles.num_items)
        added: dict[int, list[int]] = {}
        for u, base in old_len.items():
            new_items = self.profiles.profiles[u].items[base:]
            if new_items:
                pos_u = self._pos_of(u)
                for off, item in enumerate(new_items):
                    pos_u[item] = base + off
                added[u] = new_items
        if not added:
            return

        batch_users = sorted(added)
        rows = []
        cols = []
        for idx, u in enumerate(batch_users):
            rows.extend([idx] * len(added[u]))
            cols.extend(added[u])
        all_users = sorted(self.profiles.profiles)
        p_rows = []
        p_cols = []
        for ridx, u in enumerate(all_users):
            items = self.profiles.profiles[u].items
            p_rows.extend([ridx] * len(items))
            p_cols.extend(items)
        cap = self._cap
        b_mat = csr_matrix(
            (np.ones(len(rows), dtype=np.int32), (rows, cols)),
            shape=(len(batch_users), cap))
        p_mat = csr_matrix(
            (np.ones(len(p_rows), dtype=np.int32), (p_rows, p_cols)),
            shape=(len(all_users), cap))
        hits = (b_mat @ p_mat.T).tocoo()

        pairs = set()
        for bi, vi in zip(hits.row, hits.col):
            u = batch_users[bi]
            v = all_users[vi]
            if u != v:
                pairs.add((u, v) if u < v else (v, u))

        dh = self.delta_h
        for u, v in sorted(pairs):
            pu = self._pos_of(u)
            pv = self._pos_of(v)
            common = np.nonzero((pu >= 0) & (pv >= 0))[0]
            if len(common) == 0:
                continue
            au = pu[common].astype(np.int64)
            av = pv[common].astype(np.int64)
            ou = old_len.get(u, len(self.profiles.profiles[u]))
            ov = old_len.get(v, len(self.profiles.profiles[v]))
            fresh = (au >= ou) | (av >= ov)
            delta = 0
            if fresh.any():
                nu = au[fresh]
                nv = av[fresh]
                cu = au[~fresh]
                cv = av[~fresh]
                if len(cu):
                    delta += int(((np.abs(cu[:, None] - nu) <= dh)
                                  & (np.abs(cv[:, None] - nv) <= dh)).sum())
                if len(nu) > 1:
                    hit = ((np.abs(nu[:, None] - nu) <= dh)
                           & (np.abs(nv[:, None] - nv) <= dh))
                    delta += int((hit.sum() - len(nu)) // 2)
            row_u = self._hp.setdefault(u, {})
            row_v = self._hp.setdefault(v, {})
            row_u[v] = row_v[u] = row_u.get(v, 0) + delta

    def pair_state(self, u: int, v: int) -> UserPairState:
        """Current state of one pair (commons derived from profiles)."""
        pu = self.profiles.get(u)
        pv = self.profiles.get(v)
        if pu is None or pv is None:
            raise ValueError(f"unknown user in pair ({u}, {v})")
        common = tuple(sorted(set(pu.pos) & set(pv.pos)))
        hp = self._hp.get(u, {}).get(v, 0)
        return UserPairState(min(u, v), max(u, v), common, hp,
                             pu.items == pv.items)

    def similarity(self, u: int, v: int) -> float:
        state = self.pair_state(u, v)
        return state.similarity

    def top_k_users(self, u: int, k: int | None = None) -> list[tuple[int, float]]:
        """Top-k neighbors of ``u`` by similarity, ties by ascending user
        id; zero-similarity pairs excluded; unknown user gives []."""
        k = self.k if k is None else k
        prof = self.profiles.get(u)
        nb = self._hp.get(u)
        if prof is None or not nb:
            return []
        vs = np.fromiter(nb.keys(), dtype=np.int64, count=len(nb))
        hps = np.fromiter(nb.values(), dtype=np.float64, count=len(nb))
        sims = 1.0 - np.exp(-hps)
        items_u = prof.items
        for idx, v in enumerate(vs):
            other = self.profiles.profiles[int(v)].items
            if len(other) == len(items_u) and other == items_u:
                sims[idx] = 1.0
        keep = sims > 0.0
        vs = vs[keep]
        sims = sims[keep]
        order = np.lexsort((vs, -sims))[:k]
        return [(int(vs[o]), float(sims[o])) for o in order]

    def recommend(self, u: int, n: int) -> list[int]:
        """Top-n items tallied over the k nearest neighbors' profiles,
        never containing items ``u`` already consumed. Unknown users and
        empty neighborhoods fall back to global popularity."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        prof = self.profiles.get(u)
        if prof is None or len(prof) == 0:
            return self.profiles.popular(n)
        neighbors = self.top_k_users(u)
        if not neighbors:
            return self.profiles.popular(n, prof.pos)
        counts: dict[int, int] = {}
        for v, _ in neighbors:
            for item in self.profiles.profiles[v].items:
                if item not in prof.pos:
                    counts[item] = counts.get(item, 0) + 1
        if not counts:
            return self.profiles.popular(n, prof.pos)
        ranked = sorted(counts.items(), key=lambda t: (-t[1], t[0]))
        return [i for i, _ in ranked[:n]]

    @property
    def params(self) -> dict:
        return {"delta_h": self.delta_h, "k": self.k}
