"""User-based neighborhood recommender over consumed item packs.

Two users are similar when their profiles share many "hammock pairs":
unordered item pairs that both consumed within ``delta_h`` positions of
each other in their own profiles. The similarity is

    sim(u, v) = 1 - (1 - [P_u = P_v]) * exp(-|HP(u, v)|)

where [P_u = P_v] is 1 iff the two profiles are identical item sequences.

Call the item pairs at most ``delta_h`` positions apart in u's profile
its tokens, T(u). Then HP(u, v) = T(u) ∩ T(v), and the whole pair store
is one sparse product H = T·Tᵀ over a users × tokens matrix T. Profiles
are append-only, so old tokens never move: a batch of new events only
adds ΔT (each new item paired with the up to ``delta_h`` items before
it), and

    H += ΔT·T_oldᵀ + T_old·ΔTᵀ + ΔT·ΔTᵀ

reproduces the from-scratch product exactly. T is not stored: the
profiles determine it. ΔT is the tokens that end at a new position. The
update needs T_old only at ΔT's keys, and both items of such a token
belong to a new key, so those old tokens are recounted from the old
positions that hold such an item. Identical profiles that
share no token (equal single-item profiles, or any two equal profiles
when ``delta_h`` is 0) still score 1; they are found by grouping users
under the hash of their item sequence, not stored as zero-count pairs.
A grown profile's old group is found from the hash of its items before
the batch, so no per-user hash is kept.

A token {i, j} of user u is made as one int64 code
``(min(i, j) * I + max(i, j)) * U + u``, with I and U the current item
and user counts, so sorting the codes sorts the tokens by key, then by
user. ΔT's codes are made in chunks of whole profiles, at most
``TOKEN_CHUNK`` end positions each plus one profile, written into one
preallocated array and sorted in place; ΔTᵀ (keys × users) is then read
off the sorted codes: users are ``code % U``, and a key starts where
``code // U`` changes. The old tokens are made in the same chunks, and
each chunk keeps only those at a new key. So the transient is the codes,
ΔT in both orientations and one chunk, about 23 bytes a token at
ML-100K shape. The three products are summed once, as one (row, col,
count) array, and added into H in place: entries H holds grow where they
are, and only new entries are merged in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from ciprec.ingest import (ProfileStore, UserProfile, join_profiles, pair_positions,
                           run_offsets)

TOKEN_CHUNK = 4096   # token end positions a chunk of whole runs starts within


def hammock_distance(profile: UserProfile, i: int, j: int) -> int:
    """Positional distance between two items of one profile."""
    pos = profile.pos
    try:
        return abs(pos[i] - pos[j])
    except KeyError as exc:
        raise ValueError(f"item {exc.args[0]} not in profile of user {profile.user}") from None


def hammock_pairs(pu: UserProfile, pv: UserProfile, delta_h: int) -> set[tuple[int, int]]:
    """All unordered item pairs common to both profiles and within
    ``delta_h`` positions in each. Brute force; the incremental store in
    :class:`CipUModel` must agree with this exactly."""
    if delta_h < 0:
        raise ValueError(f"delta_h must be >= 0, got {delta_h}")
    pos_u, pos_v = pu.pos, pv.pos
    common = sorted(set(pos_u) & set(pos_v))
    out = set()
    for a in range(len(common)):
        i = common[a]
        for b in range(a + 1, len(common)):
            j = common[b]
            if (abs(pos_u[i] - pos_u[j]) <= delta_h
                    and abs(pos_v[i] - pos_v[j]) <= delta_h):
                out.add((i, j))
    return out


def _check_codes(num_users: int, num_items: int) -> None:
    """Refuse a store whose token codes would not fit an int64."""
    if num_items * num_items * num_users >= 2 ** 63:
        raise ValueError(f"cip-u token codes need items² · users < 2**63, "
                         f"got {num_items}² · {num_users}")


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
    hp_count: int
    profiles_equal: bool

    @property
    def similarity(self) -> float:
        return pair_similarity(self.hp_count, self.profiles_equal)


class CipUModel:
    """Incremental user-user pair store plus neighborhood recommender.

    ``k`` is the neighborhood size used by :meth:`recommend`. The store
    is H = T·Tᵀ, a symmetric users × users CSR of hammock-pair counts
    with a zero diagonal that holds only non-zero counts, its column
    indices sorted within each row. A token {i, j} of user u is the
    int64 code ``(min(i, j) * I + max(i, j)) * U + u`` over the item
    count I and user count U of the fold that makes it, so I² · U must
    be below 2**63; a batch that would break that bound is refused
    before it changes anything. T is not kept: each fold recounts the
    tokens it needs from the profiles, so a code never outlives its
    fold. ``_same`` groups users by the hash of their item sequence.
    The equality flag is derived from the profiles on demand.
    """

    kind = "cip-u"

    def __init__(self, delta_h: int, k: int):
        if delta_h < 0:
            raise ValueError(f"delta_h must be >= 0, got {delta_h}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.delta_h = delta_h
        self.k = k
        self.profiles = ProfileStore(0, 0)
        self._h = csr_matrix((0, 0), dtype=np.int32)
        self._same: dict[int, set[int]] = {}         # sequence hash -> users

    @classmethod
    def train(cls, store: ProfileStore, delta_h: int, k: int) -> "CipUModel":
        """Build the pair store from existing profiles in one batch; the
        model adopts ``store``."""
        _check_codes(store.num_users, store.num_items)
        model = cls(delta_h, k)
        model.profiles = store
        model._add(dict.fromkeys(store.profiles, 0))
        return model

    def observe(self, batches: dict[int, list[tuple[int, int]]]) -> None:
        """Apply one batch of new events, given as per-user time-ordered
        ``(item, ts)`` lists (see :meth:`ProfileStore.extend`). The result
        is identical to rebuilding the store from the final profiles.
        Raises ValueError, before changing anything, if the batch's
        largest ids would break the token code bound."""
        store = self.profiles
        top = max((i for events in batches.values() for i, _ in events), default=-1)
        _check_codes(max(store.num_users, max(batches, default=-1) + 1),
                     max(store.num_items, top + 1))
        self._add(store.extend(batches))

    def _add(self, grown: dict[int, int]) -> None:
        """Fold in the tokens of each user's profile from position
        ``grown[u]`` on, the length before the new events."""
        n, span = self.profiles.num_users, self.profiles.num_items
        for u, base in grown.items():
            self._rehash(u, base)
        if self._h.shape[0] < n:
            self._h.resize((n, n))
        # every profile, the grown ones first: ΔT lies in those runs
        profs = self.profiles.profiles
        order = list(grown) + [u for u in profs if u not in grown]
        items, _, lengths = join_profiles([profs[u] for u in order])
        owner = np.repeat(np.array(order, dtype=np.int32), lengths)
        sizes = lengths[:len(grown)]
        base = np.fromiter(grown.values(), dtype=np.int64, count=len(grown))
        back = run_offsets(sizes)
        fresh = np.flatnonzero(back >= np.repeat(base, sizes))
        total = int(np.minimum(back[fresh], self.delta_h).sum())
        if not total:
            return
        # ΔT as codes in one array, sorted in place: (key, user) order
        codes = np.empty(total, dtype=np.int64)
        at = 0
        for chunk in self._codes(items, owner, lengths, fresh, span, n):
            codes[at:at + len(chunk)] = chunk
            at += len(chunk)
        codes.sort()
        # ΔTᵀ (new keys x users): its rows are the sorted codes as they are
        users = np.empty(total, dtype=np.int32)
        starts, prev = [], -1
        step = TOKEN_CHUNK * max(self.delta_h, 1)
        for lo in range(0, total, step):
            key = codes[lo:lo + step] // n
            users[lo:lo + len(key)] = codes[lo:lo + step] - key * n
            starts.append(np.flatnonzero(np.diff(key, prepend=prev)) + lo)
            prev = key[-1]
        starts = np.concatenate(starts)
        keys = codes[starts] // n
        del codes
        ones = np.ones(total, dtype=np.int32)
        d_tt = csr_matrix((ones, users, np.append(starts, total)), shape=(len(keys), n))
        del users, starts
        d_t = d_tt.T.tocsr()
        d_t = csr_matrix((ones, d_t.indices, d_t.indptr), shape=d_t.shape)   # one ones array
        products = [(d_t @ d_tt).tocoo()]              # ΔT·ΔTᵀ
        del d_tt
        # T_oldᵀ restricted to the new keys: both items of such a token
        # belong to new keys, so it ends at an old position of one of them
        mine = np.zeros(span, dtype=bool)
        mine[keys // span] = mine[keys % span] = True
        ends = mine[items]
        ends[fresh] = False
        rows, cols = [], []
        for chunk in self._codes(items, owner, lengths, np.flatnonzero(ends), span, n):
            key = chunk // n
            row = np.searchsorted(keys, key).clip(max=len(keys) - 1)
            hit = keys[row] == key
            rows.append(row[hit])
            cols.append(chunk[hit] - key[hit] * n)
        if sum(map(len, rows)):
            rows = np.concatenate(rows)
            o_tt = csr_matrix((np.ones(len(rows), dtype=np.int32), (rows, np.concatenate(cols))),
                              shape=(len(keys), n))
            cross = (d_t @ o_tt).tocoo()               # ΔT·T_oldᵀ
            products += [cross, cross.T]
            del cross
        del d_t
        # ΔH: the products' entries summed once as one (row, col, count)
        # array, the diagonal (a user with itself) dropped
        row, col, count = (np.concatenate(part) for part in
                           zip(*[(p.row, p.col, p.data) for p in products]))
        del products
        count[row == col] = 0
        delta = coo_matrix((count, (row, col)), shape=(n, n)).tocsr()
        del row, col, count
        delta.eliminate_zeros()
        self._merge(delta)

    def _codes(self, items: np.ndarray, owner: np.ndarray, lengths: np.ndarray,
               ends: np.ndarray, span: int, n: int):
        """Yield, chunk by chunk, the codes ``(min(i, j) * span + max(i,
        j)) * n + user`` of the tokens that end at the sorted positions
        ``ends`` of the profiles of ``lengths`` concatenated in ``items``
        (``owner``: the user at each position): each such item paired by
        :func:`pair_positions` with the up to ``delta_h`` items before it.
        A chunk is whole runs: those whose first end lies in one window of
        ``TOKEN_CHUNK`` ends, so it makes fewer than (``TOKEN_CHUNK`` +
        the longest run) * ``delta_h`` tokens."""
        stop = np.cumsum(lengths)
        run = np.searchsorted(stop, ends, side="right")      # the run of each end
        lead = np.flatnonzero(np.diff(run, prepend=-1))      # each run's first end
        cut = np.append(lead[np.diff(lead // TOKEN_CHUNK, prepend=-1) != 0], len(ends))
        for e0, e1 in zip(cut[:-1], cut[1:]):
            r0, r1 = run[e0], run[e1 - 1] + 1
            base = stop[r0] - lengths[r0]
            p, q = pair_positions(lengths[r0:r1], self.delta_h, ends[e0:e1] - base)
            p += base
            q += base
            i, j = items[p], items[q]
            code = np.minimum(i, j)
            code *= span
            code += np.maximum(i, j, out=i)
            code *= n
            code += owner[q]
            yield code

    def _merge(self, delta: csr_matrix) -> None:
        """Add ΔH, a CSR with sorted indices, into H: in place where H
        holds the entry, by one merge of the new entries otherwise."""
        h = self._h
        if not h.nnz:                # a first fold: ΔH is all of H
            self._h = delta
            return
        # each entry's place in H's sorted row: one lower-bound bisection,
        # every entry at once
        row = np.repeat(np.arange(len(delta.indptr) - 1), np.diff(delta.indptr))
        col = delta.indices
        lo = h.indptr[row].astype(np.int64)
        end = hi = h.indptr[row + 1].astype(np.int64)
        for _ in range(int(np.diff(h.indptr).max()).bit_length()):
            live = lo < hi
            mid = (lo + hi) >> 1
            right = live & (h.indices[mid.clip(max=h.nnz - 1)] < col)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(live & ~right, mid, hi)
        found = lo < end
        found[found] = h.indices[lo[found]] == col[found]
        h.data[lo[found]] += delta.data[found]
        new = ~found
        if new.any():
            self._h = csr_matrix((np.insert(h.data, lo[new], delta.data[new]),
                                  np.insert(h.indices, lo[new], col[new]),
                                  h.indptr + np.searchsorted(row[new], np.arange(len(h.indptr)))),
                                 shape=h.shape)

    def _rehash(self, u: int, base: int) -> None:
        """Move ``u`` from the group of its first ``base`` items (0: a new
        user, in no group) to the group of its grown item sequence."""
        items = self.profiles.profiles[u].items
        if base:
            old = hash(items[:base].tobytes())
            peers = self._same[old]
            peers.discard(u)
            if not peers:
                del self._same[old]
        self._same.setdefault(hash(items.tobytes()), set()).add(u)

    def _equal_users(self, u: int, items) -> list[int]:
        """Other users whose profile is exactly ``items``."""
        profs = self.profiles.profiles
        return [v for v in self._same.get(hash(items.tobytes()), ())
                if v != u and profs[v].items == items]

    def _row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Users sharing a hammock pair with ``u``, and the counts."""
        h = self._h
        lo, hi = (h.indptr[u], h.indptr[u + 1]) if u < h.shape[0] else (0, 0)
        return h.indices[lo:hi], h.data[lo:hi]

    def pair_state(self, u: int, v: int) -> UserPairState:
        """Current state of one pair (equality derived from profiles)."""
        pu = self.profiles.get(u)
        pv = self.profiles.get(v)
        if pu is None or pv is None:
            raise ValueError(f"unknown user in pair ({u}, {v})")
        vs, hps = self._row(u)
        hit = hps[vs == v]
        hp = int(hit[0]) if len(hit) else 0
        return UserPairState(min(u, v), max(u, v), hp, pu.items == pv.items)

    def similarity(self, u: int, v: int) -> float:
        state = self.pair_state(u, v)
        return state.similarity

    def top_k_users(self, u: int, k: int | None = None) -> list[tuple[int, float]]:
        """Top-k neighbors of ``u`` by similarity, ties by ascending user
        id; zero-similarity pairs excluded; unknown user gives []."""
        k = self.k if k is None else k
        prof = self.profiles.get(u)
        if prof is None:
            return []
        vs, hps = self._row(u)
        sims = 1.0 - np.exp(-hps)
        same = self._equal_users(u, prof.items)
        if same:
            sims[np.isin(vs, same)] = 1.0
            extra = np.setdiff1d(same, vs)
            vs = np.concatenate([vs, extra])
            sims = np.concatenate([sims, np.ones(len(extra))])
        order = np.lexsort((vs, -sims))[:k]
        return [(int(vs[o]), float(sims[o])) for o in order]

    def recommend(self, u: int, n: int) -> list[int]:
        """Top-n items tallied over the k nearest neighbors' profiles,
        never containing items ``u`` already consumed. Unknown users and
        empty neighborhoods fall back to global popularity."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        prof = self.profiles.get(u)
        if prof is None:
            return self.profiles.popular(n)
        neighbors = self.top_k_users(u)
        if not neighbors:
            return self.profiles.popular(n, prof.items)
        profs = self.profiles.profiles
        counts = np.bincount(join_profiles([profs[v] for v, _ in neighbors])[0])
        owned = np.array(prof.items, dtype=np.int64)
        counts[owned[owned < len(counts)]] = 0
        ids = np.flatnonzero(counts)
        if not len(ids):
            return self.profiles.popular(n, prof.items)
        return ids[np.lexsort((ids, -counts[ids]))[:n]].tolist()

    @property
    def params(self) -> dict:
        return {"delta_h": self.delta_h, "k": self.k}
