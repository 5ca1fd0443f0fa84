"""Consumption-log ingestion: events, user profiles, consumed item packs.

A consumption log is a list of (user, item, timestamp) events. Users and
items get dense integer ids in order of first appearance; events are then
sorted by timestamp (stable, so same-timestamp events keep file order).
Each user's profile is the time-ordered sequence of distinct items they
consumed; a profile splits into consumed item packs (short bursts of
activity) wherever the gap between consecutive events exceeds ``delta``
seconds.

:func:`parse_events` reads a log file in every input format, the
canonical events file that :func:`ciprec.persistence.dump_events` writes
included, through one table of formats (separator, header line, rating
column) and one grammar: a line is blank or holds width - 1 separators,
ids and timestamp ``-?[0-9]{1,19}`` within int64, and a rating that is
empty or ``-?[0-9]*\\.?[0-9]*`` with a digit. Ratings are checked for
form and dropped: consumption is implicit feedback. :func:`parse_events`
opens the file in text mode, so ``\r\n`` and a lone ``\r`` end a line,
as ``\n`` does, reads it in blocks of whole lines of ``_BLOCK``
characters or more and converts each with one numpy kernel over its
bytes, :func:`_strict_columns`. A block the kernel refuses holds a bad
line; :func:`_raise_first_bad_line` reads it line by line only to name
that line. Users and items are then numbered with one ``np.unique`` each
and events ordered with one stable sort.

Sorts of ids use :func:`_sort_key`: offsets from the minimum in the
narrowest unsigned type, so numpy's stable sort is a radix sort when the
range fits 16 bits.

A profile is two typed arrays, its items (``array('i')``) and their
timestamps (``array('q')``): 12 bytes an event. :func:`build_profiles`
finds each (user, item) pair's first occurrence with two stable sorts,
by user and then by item, keeps the first occurrences in the by-user
order and fills each profile from its user's slice; only
:meth:`ProfileStore.extend` grows one. Code reads profiles through copies
(:func:`join_profiles`, ``np.array``): a live numpy view blocks extends.

:func:`log_batches` turns a log (or a slice of one) into the per-user
``(item, ts)`` batches that every model's ``observe`` takes.

Packs come from one rule, :func:`_pack_starts`: over profiles laid end
to end, a pack starts where a profile starts or where the next timestamp
is more than ``delta`` seconds later. :meth:`UserProfile.partition`
applies it to one profile, :func:`pack_arrays` to every profile (cip-i
training, deepcip's corpus through :func:`all_cips`) or to the packs a
batch grew (``observe``).

Pairs come from one selector, :func:`pair_positions`: the position pairs
of runs laid end to end (packs or whole profiles) at most a window apart
that end at given positions, every position by default. An ``observe``
asks only for the pairs that end at a new item. :func:`run_offsets`
gives each position's offset in its run.
"""

from __future__ import annotations

import math
import re
from array import array
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

EVENTS_HEADER = "CIPREC1 events"

# format -> (field separator, header line or None, rating column?)
_FORMATS = {
    "ml-tab": ("\t", None, True),
    "ml-dcolon": ("::", None, True),
    "csv": (",", "user,item,rating,timestamp", True),
    "events": (",", EVENTS_HEADER, False),
}
FORMATS = tuple(_FORMATS)

# characters parsed into arrays at a time: bounds the block's arrays
_BLOCK = 2**20


class ParseError(ValueError):
    """Raised for malformed or empty input files."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EventLog:
    """A timestamp-sorted consumption log with dense id dictionaries.

    ``users``, ``items`` and ``ts`` are parallel int64 arrays; a log
    keeps no ratings (the parser checks them for form and drops them).
    ``user_ids`` and ``item_ids`` map dense index -> raw id; the
    ``*_index`` dicts are the inverse maps. Slices produced by
    :func:`temporal_split` share the parent's dictionaries so dense ids
    stay valid across splits.
    """

    def __init__(self, users, items, ts, user_ids, item_ids,
                 user_index=None, item_index=None):
        self.users = np.asarray(users, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int64)
        self.ts = np.asarray(ts, dtype=np.int64)
        # keep list identity so slices share their parent's id space
        self.user_ids = user_ids if isinstance(user_ids, list) else list(user_ids)
        self.item_ids = item_ids if isinstance(item_ids, list) else list(item_ids)
        self.user_index = user_index or {r: k for k, r in enumerate(self.user_ids)}
        self.item_index = item_index or {r: k for k, r in enumerate(self.item_ids)}

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def __len__(self) -> int:
        return len(self.users)

    def slice(self, lo: int, hi: int) -> "EventLog":
        return EventLog(self.users[lo:hi], self.items[lo:hi], self.ts[lo:hi],
                        self.user_ids, self.item_ids, self.user_index, self.item_index)


def parse_events(path, fmt: str) -> EventLog:
    """Parse the consumption log file at ``path`` into an :class:`EventLog`.

    The file is read as UTF-8 text. ``fmt`` is one of ``ml-tab``
    (user<TAB>item<TAB>rating<TAB>timestamp), ``ml-dcolon`` (::
    separated), ``csv`` (header ``user,item,rating,timestamp``) or
    ``events``, the canonical events file (header ``CIPREC1 events``,
    then ``user,item,timestamp``). Ratings are checked for form and
    dropped. Raises :class:`ParseError` with the offending line number on
    malformed input, and on empty input.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    sep, header, rated = _FORMATS[fmt]
    line_no = 0
    cols = []
    with open(path, "r", encoding="utf-8") as fh:
        if header is not None:
            for line_no, raw in enumerate(iter(fh.readline, ""), 1):
                if line := raw.rstrip("\n"):
                    if line != header:
                        raise ParseError(f"expected header {header!r}", line_no)
                    break
        for text in _text_blocks(fh):
            block = _strict_columns(text, sep, rated)
            if block is None:
                _raise_first_bad_line(text.split("\n")[:-1], line_no + 1, sep, rated)
            line_no += block[0]
            cols.append(block[1:])
    if not sum(len(col[0]) for col in cols):
        raise ParseError("no events in input")

    users, items, ts = (np.concatenate(col) for col in zip(*cols))
    del cols                        # before np.unique's transient arrays
    order = np.argsort(ts, kind="stable")
    users, user_ids = _dense_ids(users, order)
    items, item_ids = _dense_ids(items, order)
    return EventLog(users, items, ts[order], user_ids, item_ids)


def _text_blocks(fh):
    """A text file's remaining lines, whole lines of ``_BLOCK`` characters
    or more at a time, every line ending in ``\\n`` (universal newlines:
    ``\\r\\n`` and a lone ``\\r`` read as ``\\n``)."""
    rest = ""
    while chunk := fh.read(_BLOCK):
        text = rest + chunk
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest + "\n"


def _strict_columns(text: str, sep: str, rated: bool):
    """The number of lines of ``text``, lines each ending in ``\\n``, and
    the user, item and timestamp arrays of its non-blank lines, when
    every line is in the grammar (see the module docstring). Returns None
    for any other text."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    width, m = (4 if rated else 3), len(sep)
    ends = np.flatnonzero(b == ord("\n"))
    lines, heads = len(ends), np.append(0, ends[:-1] + 1)
    filled = heads < ends
    heads, ends = heads[filled], ends[filled]           # the non-blank lines
    n = len(ends)
    if not n:                                       # blank lines only
        return (lines, *(np.empty(0, dtype=np.int64),) * 3)
    at = np.flatnonzero(b == ord(sep[0]))       # every separator is one char repeated
    cuts = at[::m]
    if (len(cuts) != n * (width - 1) or len(at) != m * len(cuts)
            or not all(np.array_equal(at[r::m], cuts + r) for r in range(1, m))):
        return None
    delim = np.zeros(len(b), dtype=bool)
    delim[cuts] = delim[ends] = True
    stops = np.flatnonzero(delim).reshape(n, width)
    if not np.array_equal(stops[:, -1], ends):
        return None
    starts = np.empty_like(stops)
    starts[:, 0] = heads
    starts[:, 1:] = stops[:, :-1] + m
    neg = b[starts] == ord("-")
    starts += neg
    dots = np.flatnonzero(b == ord(".")) if rated else ()
    digits = b - ord("0")
    # every byte not a separator, a newline, a field's leading '-' or a
    # '.' is a digit
    if (np.count_nonzero(digits < 10)
            != len(b) - len(at) - lines - np.count_nonzero(neg) - len(dots)):
        return None
    if rated:
        # a rating is empty, or holds a digit and at most one '.'
        line = np.searchsorted(ends, dots)
        point = np.zeros(n, dtype=bool)
        point[line] = True
        count = stops[:, 2] - starts[:, 2]
        if (np.count_nonzero(point) != len(dots) or np.any(dots < starts[line, 2])
                or np.any(dots >= stops[line, 2])
                or np.any((count == point) & (count + neg[:, 2] > 0))):
            return None
    cols = [lines]
    for c in (0, 1, width - 1):
        first, sign = starts[:, c].copy(), neg[:, c].copy()
        count = stops[:, c] - first
        lo, hi = int(count.min()), int(count.max())
        if lo < 1 or hi > 19:
            return None
        # one place-value pass per digit position, left to right; a
        # magnitude of 19 digits fits in uint64, one of 18 in int64
        value = np.zeros(n, dtype=np.uint64)
        for j in range(hi):
            step = value * 10 + digits.take(first + j, mode="clip")
            value = step if j < lo else np.where(count > j, step, value)
        if hi == 19 and np.any(value > np.where(sign, np.uint64(2**63),
                                                np.uint64(2**63 - 1))):
            return None
        value = value.view(np.int64)
        cols.append(np.where(sign, -value, value))
    return tuple(cols)


_ID = re.compile(r"-?[0-9]{1,19}")
_RATING = re.compile(r"(-?([0-9]+\.?[0-9]*|\.[0-9]+))?")


def _raise_first_bad_line(lines: list[str], first_no: int, sep: str, rated: bool):
    """Raise ParseError for the first line outside the grammar of a block
    that :func:`_strict_columns` refused, which starts at line
    ``first_no``; ``lines`` are without their endings."""
    width = 4 if rated else 3
    for line_no, line in enumerate(lines, first_no):
        if not line:
            continue
        parts = line.split(sep)
        if len(parts) != width:
            raise ParseError(f"expected {width} fields, got {len(parts)}", line_no)
        ids = parts[0], parts[1], parts[-1]
        if not all(map(_ID.fullmatch, ids)):
            raise ParseError(f"non-integer id or timestamp in {line!r}", line_no)
        if not all(-2**63 <= int(v) < 2**63 for v in ids):
            raise ParseError(f"id or timestamp out of the int64 range in {line!r}", line_no)
        if rated and not _RATING.fullmatch(parts[2]):
            raise ParseError(f"non-numeric rating in {line!r}", line_no)
    raise AssertionError(f"_strict_columns refused a block, from line {first_no}, "
                         "whose lines all read")


def _sort_key(a: np.ndarray) -> np.ndarray:
    """An int64 array's offsets from its minimum, in the narrowest
    unsigned type that holds them: the same order as ``a``, and numpy's
    stable sort of a key of 16 bits or fewer is a radix sort. Offsets are
    taken modulo 2**64, so a range past int64 does not overflow."""
    u = a.view(np.uint64)
    off = u - u[np.argmin(a)]
    return off.astype(np.min_scalar_type(int(off.max())))


def _dense_ids(raw: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Dense ids by first appearance in ``raw``: each value's id, taken in
    ``order``, and the raw value of each id."""
    _, first, inverse = np.unique(_sort_key(raw), return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    dense = np.argsort(by_first)            # the inverse permutation
    return dense[inverse.ravel()[order]], raw[first[by_first]].tolist()


def temporal_split(log: EventLog, n_train: int, n_valid: int,
                   n_test: int) -> tuple[EventLog, EventLog, EventLog]:
    """Split a log into contiguous train/validation/test slices by time.

    Counts must be non-negative and sum to at most ``len(log)``; any
    remaining suffix is dropped.
    """
    for name, n in (("n_train", n_train), ("n_valid", n_valid), ("n_test", n_test)):
        if n < 0:
            raise ValueError(f"{name} must be >= 0, got {n}")
    total = n_train + n_valid + n_test
    if total > len(log):
        raise ValueError(f"split sizes sum to {total} > {len(log)} events")
    a = n_train
    b = n_train + n_valid
    return log.slice(0, a), log.slice(a, b), log.slice(b, total)


def log_batches(log: EventLog) -> dict[int, list[tuple[int, int]]]:
    """A log's events as per-user ``(item, ts)`` lists in log order: the
    ``batches`` that every model's ``observe`` takes. Users enter in
    order of their first event."""
    out: dict[int, list[tuple[int, int]]] = {}
    for u, event in zip(log.users.tolist(), zip(log.items.tolist(), log.ts.tolist())):
        out.setdefault(u, []).append(event)
    return out


class UserProfile:
    """Time-ordered distinct items one user consumed: ``items``
    (``array('i')``) and their timestamps ``ts`` (``array('q')``), never
    empty. Only :func:`build_profiles` and :meth:`ProfileStore.extend`
    make or grow one. A numpy view of either (``np.asarray``) makes the
    next extend of the profile raise ``BufferError``, so no view may
    outlive the call that made it."""

    __slots__ = ("user", "items", "ts")

    def __init__(self, user: int):
        self.user = user
        self.items = array("i")
        self.ts = array("q")

    @property
    def pos(self) -> dict[int, int]:
        """Each item's position. Built on every access, never kept: bind
        it once per call."""
        return dict(zip(self.items, range(len(self.items))))

    def __len__(self) -> int:
        return len(self.items)

    def cip_boundaries(self, delta: int) -> list[int]:
        """Start indices of each pack for gap threshold ``delta`` seconds."""
        return _pack_starts(np.array(self.ts), np.array([len(self)]), delta).tolist()

    def partition(self, delta: int) -> list[list[int]]:
        """The profile's items split into packs; consecutive events stay
        in one pack iff the next timestamp is within ``delta`` seconds."""
        bounds = self.cip_boundaries(delta)
        items = self.items.tolist()
        return [items[b:e] for b, e in zip(bounds, bounds[1:] + [len(items)])]


class ProfileStore:
    """All user profiles, the dense -> raw id maps ``user_ids`` and
    ``item_ids``, whose lengths are the catalog sizes, and popularity
    counts. ``num_users`` and ``num_items`` size the id maps only when
    none are given. Every model folds events in through :meth:`extend`
    and falls back to :meth:`popular`."""

    def __init__(self, num_users: int, num_items: int,
                 user_ids: Sequence | None = None,
                 item_ids: Sequence | None = None):
        self.user_ids = list(user_ids) if user_ids is not None else list(range(num_users))
        self.item_ids = list(item_ids) if item_ids is not None else list(range(num_items))
        self.profiles: dict[int, UserProfile] = {}
        self._counts: np.ndarray | None = None
        self._ranking: list[int] | None = None

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def get(self, user: int) -> UserProfile | None:
        return self.profiles.get(user)

    def add_event(self, user: int, item: int, t: int) -> bool:
        """Append one event (see :meth:`extend`); returns False for an
        item already in the profile."""
        return user in self.extend({user: [(item, t)]})

    def extend(self, batches: dict[int, list[tuple[int, int]]]) -> dict[int, int]:
        """Append per-user time-ordered ``(item, ts)`` events, users in
        ascending order; items already in a profile (or earlier in the
        batch) are dropped. This is the only code that creates or grows
        a profile, and a user whose events are all dropped gets none.
        Returns each grown user's profile length before the batch, users
        in ascending order.

        All or nothing: raises ValueError, before appending anything, if
        a new item is older than its profile's last event (earlier
        events of the batch included).
        """
        fresh = {}
        for u, events in batches.items():
            prof = self.profiles.get(u)
            seen = set(prof.items) if prof else set()
            last = prof.ts[-1] if prof else -math.inf
            new = []
            for item, t in events:
                if item in seen:
                    continue
                if t < last:
                    raise ValueError(
                        f"late event for user {u}: item {item} at {t} is older "
                        f"than the event before it at {last}")
                seen.add(item)
                last = t
                new.append((item, t))
            if new:
                fresh[u] = new
        before, added = {}, []
        for u in sorted(fresh):
            prof = self.profiles.get(u)
            if prof is None:
                prof = self.profiles[u] = UserProfile(u)
            before[u] = len(prof)
            for item, t in fresh[u]:
                prof.items.append(item)
                prof.ts.append(t)
                added.append(item)
            if u >= self.num_users:
                _grow_ids(self.user_ids, u + 1)
        if added:
            if max(added) >= self.num_items:
                _grow_ids(self.item_ids, max(added) + 1)
            if self._counts is not None:
                self._counts = self.item_counts() + np.bincount(added, minlength=self.num_items)
            self._ranking = None
        return before

    def item_counts(self) -> np.ndarray:
        """Number of profiles containing each item. Counted once, then
        kept up to date by :meth:`extend`; callers must not mutate the
        array."""
        if self._counts is None:
            items, _, _ = join_profiles(list(self.profiles.values()))
            self._counts = np.bincount(items, minlength=self.num_items)
        if len(self._counts) < self.num_items:      # a catalog grown without events
            self._counts = np.pad(self._counts, (0, self.num_items - len(self._counts)))
        return self._counts

    def popular_ranking(self) -> list[int]:
        """Items by descending consumption count, ties by ascending id.
        Items nobody consumed are excluded. The list is cached and shared
        until an event is added; callers must not mutate it."""
        if self._ranking is None:
            counts = self.item_counts()
            ids = np.nonzero(counts)[0]
            order = np.lexsort((ids, -counts[ids]))
            self._ranking = [int(i) for i in ids[order]]
        return self._ranking

    def popular(self, n: int, exclude=()) -> list[int]:
        """The ``n`` most popular items not among the ids ``exclude``
        holds: every model's cold-start and empty-neighbourhood fallback."""
        exclude = set(exclude)
        return list(islice((i for i in self.popular_ranking() if i not in exclude), n))

    def __iter__(self) -> Iterator[UserProfile]:
        return iter(self.profiles.values())

    def __len__(self) -> int:
        return len(self.profiles)


def _grow_ids(ids: list, n: int) -> None:
    """Extend a dense -> raw id map to ``n`` ids. A dense id first seen
    in a store has no raw id: it gets its own number, or the next number
    up that no other id holds."""
    used = set(ids)
    raw = len(ids)
    while len(ids) < n:
        while raw in used:
            raw += 1
        ids.append(raw)
        raw += 1


def build_profiles(log: EventLog) -> ProfileStore:
    """Build per-user profiles from a log; re-consumptions collapse to
    the first occurrence. Users enter ``store.profiles`` in order of
    their first event. Raises ValueError if a user's first occurrences
    are not in timestamp order."""
    store = ProfileStore(log.num_users, log.num_items, log.user_ids, log.item_ids)
    if not len(log):
        return store
    users, items = _sort_key(log.users), _sort_key(log.items)
    by_user = np.argsort(users, kind="stable")
    # events by (item, user), in log order within a pair: each pair's
    # first occurrence heads its run
    by = by_user[np.argsort(items[by_user], kind="stable")]
    u, i = users[by], items[by]
    head = np.ones(len(by), dtype=bool)
    head[1:] = (u[1:] != u[:-1]) | (i[1:] != i[:-1])
    kept = np.zeros(len(by), dtype=bool)
    kept[by[head]] = True
    # the first occurrences grouped by user, each user's in log order
    first = by_user[kept[by_user]]
    group, ts = users[first], log.ts[first]
    same = group[1:] == group[:-1]
    if np.any(same & (ts[1:] < ts[:-1])):
        raise ValueError("events must arrive in timestamp order")
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    ends = np.append(starts[1:], len(first))
    items = log.items[first].astype(np.int32)
    owners = log.users[first[starts]].tolist()
    for k in np.argsort(first[starts]).tolist():
        b, e = int(starts[k]), int(ends[k])
        prof = store.profiles[owners[k]] = UserProfile(owners[k])
        prof.items.frombytes(items[b:e].tobytes())
        prof.ts.frombytes(ts[b:e].tobytes())
    return store


def join_profiles(profs: Sequence[UserProfile]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The items (int64) and timestamps of ``profs`` concatenated, and
    each profile's length: copies, so no view of a profile survives."""
    lengths = np.array([len(p.items) for p in profs], dtype=np.int64)
    items = np.frombuffer(b"".join(p.items for p in profs), dtype=np.int32)
    ts = np.frombuffer(b"".join(p.ts for p in profs), dtype=np.int64)
    return items.astype(np.int64), ts, lengths


def _pack_starts(ts: np.ndarray, lengths: np.ndarray, delta: int) -> np.ndarray:
    """The one pack rule, over the timestamps of profiles of ``lengths``
    concatenated: a pack starts where a profile starts or where the next
    timestamp is more than ``delta`` seconds later. Returns the start
    positions."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    cut = np.ones(len(ts), dtype=bool)
    cut[1:] = ts[1:] - ts[:-1] > delta
    cut[(np.cumsum(lengths) - lengths)[lengths > 0]] = True
    return np.flatnonzero(cut)


def pack_arrays(store: ProfileStore, delta: int, before: dict[int, int] | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The packs of the profiles of ``before``, the result of
    :meth:`ProfileStore.extend` (each grown user's profile length before
    the batch), that hold a new item, as arrays: their items concatenated
    (int64), in user order, each pack's size, and a mask of the new
    items. Without ``before``: every user's packs, every item new."""
    users = sorted(store.profiles) if before is None else before
    items, ts, lengths = join_profiles([store.profiles[u] for u in users])
    starts = _pack_starts(ts, lengths, delta)
    sizes = np.append(starts[1:], len(items)) - starts
    if before is None:
        return items, sizes, np.ones(len(items), dtype=bool)
    base = np.fromiter(before.values(), dtype=np.int64, count=len(before))
    new = run_offsets(lengths) >= np.repeat(base, lengths)
    # a profile's new items are its tail, so a pack holds one iff it ends in one
    kept = new[starts + sizes - 1]
    held = np.repeat(kept, sizes)
    return items[held], sizes[kept], new[held]


def all_cips(store: ProfileStore, delta: int) -> list[list[int]]:
    """Every user's packs as item lists, in user order (a training
    corpus)."""
    items, sizes, _ = pack_arrays(store, delta)
    ends = np.cumsum(sizes).tolist()
    row = items.tolist()
    return [row[b:e] for b, e in zip([0] + ends, ends)]


def run_offsets(sizes) -> np.ndarray:
    """Each position's offset in its run, over runs of ``sizes`` laid end
    to end."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = (sizes.cumsum() - sizes).repeat(sizes)
    return np.arange(len(starts)) - starts


def pair_positions(sizes, window: int | None = None, ends=None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Every position pair (p, q) of one run of a concatenation of runs
    of ``sizes`` with 0 < q - p <= ``window`` (``None``: no limit) and q
    in the sorted positions ``ends`` (``None``: every position).

    Returns the flat positions ``(p, q)``, ordered by q, then by q - p.
    Memory is linear in positions plus pairs; no positions x window mask.
    """
    if window is not None and window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    back = run_offsets(sizes)
    if ends is None:
        at = np.arange(len(back))
    else:
        at = np.asarray(ends, dtype=np.int64)
        back = back[at]
    if window is not None:
        back = np.minimum(back, window)
    q = np.repeat(at, back)
    p = np.repeat(at - 1 + np.cumsum(back) - back, back)
    p -= np.arange(len(p))
    return p, q

