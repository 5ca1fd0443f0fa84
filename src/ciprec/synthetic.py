"""Synthetic consumption corpora with planted sequential structure.

Two generators:

* :func:`generate_events` builds a 943-user / 1682-item / 100k-event log in
  ``ml-tab`` format. Items are grouped into contiguous genre blocks; each
  user walks forward through a handful of preferred genres in short
  sessions, usually resuming where the previous session stopped. The
  result rewards sequence-aware recommenders, gives user-neighborhood
  methods a genre community signal, and leaves plain popularity behind.
* :func:`planted_clusters` builds a pack corpus whose items split into
  two disjoint groups that only ever co-occur within their own group,
  for verifying that learned embeddings separate the groups.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

N_USERS = 943
N_ITEMS = 1682
N_EVENTS = 100_000
N_GENRES = 20

_MIN_PER_USER = 20
_MAX_PER_USER = 250
_SESSION_MIN, _SESSION_MAX = 4, 12
_GAP_MIN, _GAP_MAX = 5, 50          # seconds inside a session (< 60s pack gap)
_SESSION_SPACING = 7_200            # at least two hours between sessions
_T0 = 880_000_000                   # late-1997 epoch seconds
_HORIZON = 720 * 86_400
_CONTINUE_P = 0.9                   # resume the previous walk position
_STEP_P = (0.74, 0.16, 0.10)        # forward step of 1, 2 or 3
# the CDF rng.choice(3, p=_STEP_P) builds on every call; searching it
# with one rng.random() draw gives the same steps from the same stream
_STEP_CDF = np.cumsum(_STEP_P)
_STEP_CDF = (_STEP_CDF / _STEP_CDF[-1]).tolist()
_DRIFT_P = 0.18                     # per session: retire the oldest taste


def _step(rng: np.random.Generator) -> int:
    """A forward step offset 0, 1 or 2 with probabilities ``_STEP_P``."""
    return bisect_right(_STEP_CDF, rng.random())


def _genre_blocks(n_items: int, n_genres: int) -> list[np.ndarray]:
    """Split item ids 0..n_items-1 into contiguous, near-equal blocks."""
    bounds = np.linspace(0, n_items, n_genres + 1).astype(int)
    return [np.arange(bounds[g], bounds[g + 1]) for g in range(n_genres)]


def _event_quota(rng: np.random.Generator, n_users: int, n_events: int) -> np.ndarray:
    """Events per user: skewed, at least _MIN_PER_USER, exact total."""
    weights = 1.0 / np.arange(1, n_users + 1) ** 0.6
    rng.shuffle(weights)
    extra = n_events - n_users * _MIN_PER_USER
    quota = _MIN_PER_USER + np.floor(extra * weights / weights.sum()).astype(int)
    quota = np.minimum(quota, _MAX_PER_USER)
    # hand out the rounding remainder one event at a time
    short = n_events - int(quota.sum())
    order = rng.permutation(n_users)
    k = 0
    while short > 0:
        u = order[k % n_users]
        if quota[u] < _MAX_PER_USER:
            quota[u] += 1
            short -= 1
        k += 1
    return quota


def generate_events(seed: int = 7, n_users: int = N_USERS, n_items: int = N_ITEMS,
                    n_events: int = N_EVENTS, n_genres: int = N_GENRES):
    """Return ``[(user_raw, item_raw, rating, ts), ...]`` sorted by ts.

    Raw user ids are 1..n_users and raw item ids 1..n_items. Every user
    has at least 20 events, every item appears at least once, and no
    (user, item) pair repeats.
    """
    rng = np.random.default_rng(seed)
    blocks = _genre_blocks(n_items, n_genres)
    block_size = min(len(b) for b in blocks)

    # user taste: 2-4 preferred genres, drawn with mild genre popularity skew
    genre_weights = 1.0 / np.arange(1, n_genres + 1) ** 0.7
    genre_weights /= genre_weights.sum()
    prefs: list[list[int]] = []
    for _ in range(n_users):
        k_g = int(rng.integers(min(2, n_genres), min(5, n_genres + 1)))
        prefs.append(list(rng.choice(n_genres, size=k_g, replace=False,
                                     p=genre_weights)))

    quota = _event_quota(rng, n_users, n_events)
    # keep quotas inside what a user's genres can supply without repeats
    for u in range(n_users):
        cap = int(0.8 * len(prefs[u]) * block_size)
        if quota[u] > cap:
            quota[u] = cap
    deficit = n_events - int(quota.sum())
    order = rng.permutation(n_users)
    k = 0
    idle = 0
    while deficit > 0 and idle < n_users:
        u = order[k % n_users]
        if quota[u] < int(0.8 * len(prefs[u]) * block_size):
            quota[u] += 1
            deficit -= 1
            idle = 0
        else:
            idle += 1
        k += 1

    events: list[tuple[int, int, int, int]] = []
    consumed: list[set[int]] = [set() for _ in range(n_users)]
    seen_items: set[int] = set()

    for u in range(n_users):
        remaining = int(quota[u])
        # cut the quota into session lengths
        lengths: list[int] = []
        while remaining > 0:
            n = int(rng.integers(_SESSION_MIN, _SESSION_MAX + 1))
            n = min(n, remaining)
            if remaining - n == 1:      # avoid a trailing 1-event session
                n += 1 if n < _SESSION_MAX else -1
            lengths.append(n)
            remaining -= n
        starts = np.sort(rng.integers(_T0, _T0 + _HORIZON, size=len(lengths)))
        t_prev_end = 0
        genre = int(rng.choice(prefs[u]))
        cursor = int(rng.choice(blocks[genre]))
        for n, start in zip(lengths, starts):
            t = max(int(start), t_prev_end + _SESSION_SPACING)
            if rng.random() < _DRIFT_P:
                # tastes drift: the oldest genre falls away, a new one joins
                stale = prefs[u].pop(0)
                pool = [g for g in range(n_genres)
                        if g != stale and g not in prefs[u]]
                if not pool:            # tiny catalogs: re-adopt the old one
                    pool = [stale]
                w = genre_weights[pool] / genre_weights[pool].sum()
                prefs[u].append(int(rng.choice(pool, p=w)))
                if genre == stale:
                    genre = int(rng.choice(prefs[u]))
                    cursor = int(rng.choice(blocks[genre]))
            if rng.random() >= _CONTINUE_P:
                genre = int(rng.choice(prefs[u]))
                cursor = int(rng.choice(blocks[genre]))
            block = blocks[genre]
            placed = 0
            tries = 0
            while placed < n and tries < 20 * n:
                tries += 1
                item = int(block[cursor % len(block)])
                cursor += 1 + _step(rng)
                if item in consumed[u]:
                    continue
                consumed[u].add(item)
                seen_items.add(item)
                events.append((u + 1, item + 1, int(rng.integers(1, 6)), t))
                t += int(rng.integers(_GAP_MIN, _GAP_MAX + 1))
                placed += 1
            if tries >= 20 * n and placed < n:
                # the walk exhausted its genre; move to a fresh one
                genre = int(rng.choice(prefs[u]))
                cursor = int(rng.choice(blocks[genre]))
            t_prev_end = t

    # guarantee full item coverage with short fill-in sessions
    missing = sorted(set(range(n_items)) - seen_items)
    g_of = np.empty(n_items, dtype=int)
    for g, block in enumerate(blocks):
        g_of[block] = g
    by_genre: dict[int, list[int]] = {}
    for item in missing:
        by_genre.setdefault(int(g_of[item]), []).append(item)
    fill_t = _T0 + _HORIZON + _SESSION_SPACING
    for g, items in sorted(by_genre.items()):
        for chunk_start in range(0, len(items), 8):
            chunk = items[chunk_start:chunk_start + 8]
            u = int(rng.integers(0, n_users))
            todo = [i for i in chunk if i not in consumed[u]]
            t = fill_t
            for item in todo:
                consumed[u].add(item)
                events.append((u + 1, item + 1, int(rng.integers(1, 6)), t))
                t += int(rng.integers(_GAP_MIN, _GAP_MAX + 1))
            fill_t = t + _SESSION_SPACING

    # exact size: the count drifts only if quotas were cut; pad with walks
    events.sort(key=lambda e: (e[3], e[0]))
    if len(events) > n_events:
        events = events[:n_events]
    pad_t = events[-1][3] + _SESSION_SPACING
    rows = [b.tolist() for b in blocks]     # Python ints index faster
    stalls = 0
    while len(events) < n_events:
        u = int(rng.integers(0, n_users))
        if stalls <= n_users:
            genre = int(rng.choice(prefs[u]))
        else:                       # tastes saturated; roam anywhere
            genre = int(rng.integers(n_genres))
        block = rows[genre]
        cursor = int(rng.choice(len(block)))
        placed = 0
        for _ in range(2 * len(block)):
            if placed >= min(_SESSION_MAX, n_events - len(events)):
                break
            item = block[cursor % len(block)]
            cursor += 1 + _step(rng)
            if item in consumed[u]:
                continue
            consumed[u].add(item)
            events.append((u + 1, item + 1, int(rng.integers(1, 6)), pad_t))
            pad_t += int(rng.integers(_GAP_MIN, _GAP_MAX + 1))
            placed += 1
        pad_t += _SESSION_SPACING
        stalls = stalls + 1 if placed == 0 else 0
        if stalls > 50 * n_users:
            raise ValueError(
                f"cannot reach {n_events} events with {n_users} users x "
                f"{n_items} items; lower n_events or raise the catalog size")
    return events


def write_ml_tab(path, events) -> None:
    """Write ``(user, item, rating, ts)`` rows as tab-separated lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, i, r, t in events:
            fh.write(f"{u}\t{i}\t{r}\t{t}\n")


def planted_clusters(n_items: int = 20, n_packs: int = 500, seed: int = 3,
                     pack_min: int = 4, pack_max: int = 6):
    """Pack corpus over two disjoint item groups.

    Returns ``(packs, group_a, group_b)`` where ``packs`` is a list of
    item-id lists; each pack draws only from one group, so items
    co-occur exclusively within their own group.
    """
    rng = np.random.default_rng(seed)
    half = n_items // 2
    group_a = list(range(half))
    group_b = list(range(half, n_items))
    packs: list[list[int]] = []
    for k in range(n_packs):
        group = group_a if k % 2 == 0 else group_b
        size = int(rng.integers(pack_min, pack_max + 1))
        packs.append(list(rng.choice(group, size=size, replace=False)))
    return packs, group_a, group_b
