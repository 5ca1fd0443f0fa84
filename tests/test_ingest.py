"""Log parsing, profiles, pack partitioning and temporal splits."""

import re
import tracemalloc

import numpy as np
import pytest

from ciprec import ingest
from ciprec.ingest import (EVENTS_HEADER, EventLog, ParseError,
                           ProfileStore, UserProfile, all_cips, build_profiles,
                           pack_arrays, pair_positions, parse_events,
                           run_offsets, temporal_split)
from ciprec.persistence import FormatError, dump_events, load_events

from helpers import parse_lines


def test_parse_ml_tab_basic():
    lines = ["1\t10\t5\t100", "1\t20\t3\t130", "2\t10\t4\t90"]
    log = parse_lines(lines, "ml-tab")
    assert len(log) == 3
    assert log.num_users == 2 and log.num_items == 2
    # dense ids follow first appearance in file order
    assert log.user_ids == [1, 2] and log.item_ids == [10, 20]
    # events come out sorted by timestamp
    assert list(log.ts) == [90, 100, 130]
    assert [log.user_ids[u] for u in log.users] == [2, 1, 1]


def test_parse_ml_dcolon():
    log = parse_lines(["7::55::3::200", "7::44::1::100"], "ml-dcolon")
    assert log.user_ids == [7] and log.item_ids == [55, 44]
    assert list(log.ts) == [100, 200]


def test_parse_csv_header_required():
    lines = ["user,item,rating,timestamp", "3,9,4.5,100", "3,12,2,90"]
    log = parse_lines(lines, "csv")
    assert log.num_users == 1 and log.num_items == 2
    with pytest.raises(ParseError):
        parse_lines(["3,9,4.5,100"], "csv")


def test_parse_stable_order_on_tied_timestamps():
    lines = ["1\t10\t1\t50", "2\t20\t1\t50", "1\t30\t1\t50"]
    log = parse_lines(lines, "ml-tab")
    assert [log.item_ids[i] for i in log.items] == [10, 20, 30]


def test_parse_rejects_malformed():
    for bad in (["1\t2\t3"], ["a\t2\t3\t4"], ["1\t2\t3\t4\t5"], ["1 2 3 4"],
                ["1.5\t2\t35\t4"], ["1\t2\t35\t4.5"]):    # a '.' outside the rating
        with pytest.raises(ParseError) as err:
            parse_lines(bad, "ml-tab")
        assert err.value.line_no == 1


_SEPS = {"ml-tab": "\t", "ml-dcolon": "::", "csv": ",", "events": ","}
_HEADERS = {"csv": "user,item,rating,timestamp", "events": EVENTS_HEADER}


def _lines(rng, rows, header=None):
    """``rows`` as lines after an optional header, with blank lines
    between them and random ``\\n`` or ``\\r\\n`` endings (none on the
    last). Returns the lines and each row's line number."""
    lines = [header + "\n"] if header else []
    numbers = []
    for row in rows:
        while rng.random() < 0.25:
            lines.append(str(rng.choice(["\n", "\r\n"])))
        lines.append(row + str(rng.choice(["\n", "\r\n"])))
        numbers.append(len(lines))
    lines[-1] = lines[-1].rstrip("\r\n")
    return lines, numbers


def _triples(log):
    return [(log.user_ids[u], log.item_ids[i], t) for u, i, t in
            zip(log.users.tolist(), log.items.tolist(), log.ts.tolist())]


@pytest.mark.parametrize("block", [1, 2, 7, 40, 300])
def test_parse_is_the_same_across_block_boundaries(tmp_path, monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    rng = np.random.default_rng(block)
    for trial in range(25):
        n = int(rng.integers(1, 40))
        users = (rng.integers(-3, 9, n) * 7).tolist()
        items = (rng.integers(0, 15, n) * 11 + 2).tolist()
        ts = rng.integers(0, 6, n).tolist()                 # many ties
        ratings = [str(rng.choice(["", "1", "4.5", "3"])) for _ in range(n)]
        order = sorted(range(n), key=ts.__getitem__)      # stable
        want = [(users[k], items[k], ts[k]) for k in order]
        for fmt in ("ml-tab", "ml-dcolon", "csv"):
            rows = [_SEPS[fmt].join(map(str, row))
                    for row in zip(users, items, ratings, ts)]
            lines = _lines(rng, rows, _HEADERS.get(fmt))[0]
            path = tmp_path / f"{trial}.{fmt}"
            path.write_text("".join(lines), newline="")
            log = parse_events(path, fmt)
            assert _triples(log) == want
            assert log.user_ids == list(dict.fromkeys(users))
            assert log.item_ids == list(dict.fromkeys(items))
        path = tmp_path / f"{trial}.events"
        dump_events(log, path)
        rows = path.read_text().splitlines()[1:]
        for got in (parse_lines(_lines(rng, rows, EVENTS_HEADER)[0], "events"),
                    load_events(path)):
            assert _triples(got) == want
            assert got.user_ids == list(dict.fromkeys(u for u, _, _ in want))
            assert got.item_ids == list(dict.fromkeys(i for _, i, _ in want))


@pytest.mark.parametrize("block", [1, 2, 7, 40, 300])
def test_malformed_line_in_a_later_block_names_its_own_line(tmp_path, monkeypatch,
                                                           block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    rng = np.random.default_rng(100 + block)
    for fmt, sep in _SEPS.items():
        rated = fmt != "events"
        rows = [[str(u), str(i), "3", str(t)] if rated else [str(u), str(i), str(t)]
                for u, i, t in zip(rng.integers(1, 9, 30), rng.integers(1, 20, 30),
                                   range(100, 130))]
        lines, numbers = _lines(rng, [sep.join(row) for row in rows], _HEADERS.get(fmt))
        k = int(rng.integers(15, 29))
        f, g = rows[k], rows[k + 1]
        bad = [{k: sep.join(f[:-1])}, {k: sep.join(f + ["1"])}, {k: sep.join(["x"] + f[1:])},
               {k: sep.join(f) + ":"}, {k: ":" + sep.join(f)},
               {k: sep.join([str(2**63)] + f[1:])},                # past int64
               # a short and a long line whose fields add up to two rows
               {k: sep.join(f[:-1]), k + 1: sep.join(g + ["1"])}]
        if rated:
            bad.append({k: sep.join(f[:2] + ["abc"] + f[3:])})
        for rows_at in bad:
            edited = list(lines)
            for j, row in rows_at.items():
                edited[numbers[j] - 1] = row + "\n"
            path = tmp_path / f"bad.{fmt}"
            path.write_text("".join(edited), newline="")
            with pytest.raises(ParseError) as err:
                parse_events(path, fmt)
            assert err.value.line_no == numbers[k], (fmt, rows_at)
            if fmt == "events":
                with pytest.raises(FormatError, match=f"line {numbers[k]}: "):
                    load_events(path)


def _reference_parse(lines, fmt):
    """Reference: each line on its own, without its ``\n`` and then ``\r``
    ending, matched whole against one regular expression of the grammar.
    Returns the events and the id lists, or the first bad line's number
    (None: no events)."""
    sep, header = _SEPS[fmt], _HEADERS.get(fmt)
    field = r"(-?[0-9]{1,19})"
    rating = r"(?:-?(?:[0-9]+\.?[0-9]*|\.[0-9]+))?"
    grammar = re.compile(re.escape(sep).join(
        [field, field, rating, field] if fmt != "events" else [field] * 3))
    events = []
    for line_no, raw in enumerate(lines, 1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        if header is not None:
            if line != header:
                return line_no
            header = None
            continue
        match = grammar.fullmatch(line)
        if not match:
            return line_no
        row = tuple(map(int, match.groups()))
        if not all(-2**63 <= v < 2**63 for v in row):
            return line_no
        events.append(row)
    if not events:
        return None
    return (sorted(events, key=lambda e: e[2]), list(dict.fromkeys(e[0] for e in events)),
            list(dict.fromkeys(e[1] for e in events)))


# fields at the edges of the grammar, on either side
_ODD_IDS = ["+7", " 7", "7 ", "1_0", "-0", "007", "٣", "７", "x", "", "-", "1.0", "5:", ":5",
            "9" * 18, "-" + "9" * 18, "1" + "0" * 18, str(2**63 - 1), str(-2**63),
            str(2**63), str(-2**63 - 1), "9" * 19, "0" * 19 + "1"]
_ODD_RATINGS = ["4.5", ".5", "4.", "", "nan", "1e3", "-0", "9" * 15, "-" + "9" * 15,
                "9" * 16, "-", "abc", " 3", "inf", "-.5", ".", "-.", "4.5.", "1..5"]


def _random_field(rng, odd, rating=False):
    if rng.random() < 0.04:
        return str(rng.choice(odd))
    if rating:
        return str(rng.choice(["", "1", "3", "5", "-2", "0", "12"]))
    digits = int(rng.choice([1, 2, 3, 4, 9, 18]))
    value = int(rng.integers(0, 10**digits))
    return str(-value if rng.random() < 0.1 else value)


def _random_file(rng, fmt):
    """Lines of a random file: mostly strict rows, with blank lines,
    ``\r\n`` and lone ``\r`` endings, odd fields, wrong field counts and
    sometimes no final newline."""
    sep, rated = _SEPS[fmt], fmt != "events"
    lines = [_HEADERS[fmt] + "\n"] if fmt in _HEADERS else []
    for _ in range(int(rng.integers(0, 30))):
        fields = [_random_field(rng, _ODD_IDS) for _ in range(3)]
        if rated:
            fields.insert(2, _random_field(rng, _ODD_RATINGS, rating=True))
        if rng.random() < 0.02:
            fields = fields[:-1] if rng.random() < 0.5 else fields + ["1"]
        line = sep.join(fields)
        if rng.random() < 0.04:                 # one separator character moved
            line = line.replace(sep[0], "", 1)
            at = int(rng.integers(len(line) + 1))
            line = line[:at] + sep[0] + line[at:]
        end = str(rng.choice(["\n"] * 12 + ["\r\n", "\r"]))
        if rng.random() < 0.04:
            end += str(rng.choice(["\n", "\r\n", " \n"]))
        lines.append(line + end)
    if lines and rng.random() < 0.3:
        lines[-1] = lines[-1].rstrip("\r\n")
    return lines


def _check_same_as_reference(path, lines, fmt):
    want = _reference_parse(lines, fmt)
    if not isinstance(want, tuple):
        with pytest.raises(ParseError) as err:
            parse_events(path, fmt)
        assert err.value.line_no == want
        return
    log = parse_events(path, fmt)
    events, user_ids, item_ids = want
    assert (log.user_ids, log.item_ids) == (user_ids, item_ids)
    assert [(log.user_ids[u], log.item_ids[i], t) for u, i, t in
            zip(log.users.tolist(), log.items.tolist(), log.ts.tolist())] == \
        events


@pytest.mark.parametrize("fmt", list(_SEPS))
def test_parse_matches_a_per_line_reference(tmp_path, monkeypatch, fmt):
    rng = np.random.default_rng(list(_SEPS).index(fmt))
    path = tmp_path / "log.txt"
    for _ in range(60):
        lines = _random_file(rng, fmt)
        path.write_text("".join(lines), encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            read_back = list(fh)            # universal newlines, as the parser reads
        for block in (1, 5, 64, 2**20):
            monkeypatch.setattr(ingest, "_BLOCK", block)
            _check_same_as_reference(path, read_back, fmt)


@pytest.mark.parametrize("block", [1, 5, 2**20])
@pytest.mark.parametrize("fmt", list(_SEPS))
def test_valid_input_never_reaches_the_line_reader(tmp_path, monkeypatch, fmt, block):
    def line_reader(*args):
        raise AssertionError("the line reader ran on valid input")

    monkeypatch.setattr(ingest, "_raise_first_bad_line", line_reader)
    monkeypatch.setattr(ingest, "_BLOCK", block)
    rows = [(1, 10, "4.5", 100), (2**63 - 1, -2**63, ".5", 100), (10**18, 7, "", -3),
            (0, 10**18 + 1, "4.", 10**18), (1, 7, "-0", 5), (3, 2, "12", 5)]
    lines = [_HEADERS[fmt] + "\r\n"] if fmt in _HEADERS else []
    for k, (u, i, r, t) in enumerate(rows):
        ending = ["\n", "\r\n", "\r"][k % 3]
        lines += [ending] * (k % 2)                         # blank lines
        lines.append(_SEPS[fmt].join(map(str, (u, i, r, t) if fmt != "events"
                                         else (u, i, t))) + ending)
    lines[-1] = lines[-1].rstrip("\r\n")
    path = tmp_path / "log.txt"
    path.write_text("".join(lines), newline="")
    want = [(u, i, t) for u, i, _, t in sorted(rows, key=lambda row: row[3])]
    assert _triples(parse_events(path, fmt)) == want


def test_parse_rejects_empty_and_unknown_format():
    with pytest.raises(ParseError):
        parse_lines([], "ml-tab")
    with pytest.raises(ValueError):
        parse_lines(["1\t2\t3\t4"], "bogus")


def test_parse_from_file(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("1\t10\t5\t100\n2\t20\t1\t50\n")
    log = parse_events(p, "ml-tab")
    assert len(log) == 2 and list(log.ts) == [50, 100]


def test_slice_shares_id_space():
    lines = [f"1\t{i}\t1\t{100 + i}" for i in range(6)]
    log = parse_lines(lines, "ml-tab")
    sub = log.slice(2, 5)
    assert len(sub) == 3
    assert sub.item_ids is log.item_ids and sub.user_ids is log.user_ids


def test_temporal_split_prefix_middle_suffix():
    lines = [f"1\t{i}\t1\t{100 + i}" for i in range(10)]
    log = parse_lines(lines, "ml-tab")
    a, b, c = temporal_split(log, 5, 2, 2)
    assert (len(a), len(b), len(c)) == (5, 2, 2)  # one trailing event dropped
    assert list(a.ts) == [100, 101, 102, 103, 104]
    assert list(c.ts) == [107, 108]


def test_temporal_split_validation():
    log = parse_lines(["1\t1\t1\t1", "1\t2\t1\t2"], "ml-tab")
    with pytest.raises(ValueError):
        temporal_split(log, 2, 1, 0)
    with pytest.raises(ValueError):
        temporal_split(log, -1, 1, 0)


def _profile_of(events):
    """The profile of user 0 after one :meth:`ProfileStore.extend`."""
    store = ProfileStore(0, 0)
    store.extend({0: events})
    return store.get(0)


def test_pack_boundary_is_inclusive():
    # a gap of exactly delta stays in the same pack; delta+1 opens a new one
    p = _profile_of([(1, 100), (2, 160), (3, 221)])
    assert p.partition(60) == [[1, 2], [3]]
    assert p.cip_boundaries(60) == [0, 2] and list(p.ts[:2]) == [100, 160]


def test_partition_edge_cases():
    assert UserProfile(0).partition(60) == []
    p = _profile_of([(9, 5)])
    assert p.partition(0) == [[9]] and list(p.ts) == [5]
    with pytest.raises(ValueError):
        p.partition(-1)


def test_partition_fuzz_covers_profile_exactly():
    rng = np.random.default_rng(3)
    for _ in range(200):
        events, t = [], 0
        for item in range(int(rng.integers(1, 30))):
            t += int(rng.integers(1, 150))
            events.append((item, t))
        p = _profile_of(events)
        delta = int(rng.integers(0, 160))
        packs = p.partition(delta)
        flat = [i for c in packs for i in c]
        assert flat == list(p.items)
        pos = p.pos
        for c in packs:
            span = [p.ts[pos[i]] for i in c]
            assert all(b - a <= delta for a, b in zip(span, span[1:]))
        for a, b in zip(packs, packs[1:]):
            assert p.ts[pos[b[0]]] - p.ts[pos[a[-1]]] > delta


def test_build_profiles_and_counts():
    log = parse_lines(["1\t10\t1\t5", "2\t10\t1\t6", "2\t20\t1\t7",
                       "1\t10\t1\t8"], "ml-tab")
    store = build_profiles(log)
    assert len(store) == 2
    assert list(store.get(0).items) == [0]  # duplicate consumption dropped
    assert list(store.item_counts()) == [2, 1]
    assert store.popular_ranking() == [0, 1]


def _append_profiles(log):
    """Reference: one ``ProfileStore.add_event`` per event, in log order."""
    store = ProfileStore(log.num_users, log.num_items, log.user_ids, log.item_ids)
    for u, i, t in zip(log.users.tolist(), log.items.tolist(), log.ts.tolist()):
        store.add_event(u, i, t)
    return store


def _random_log(rng, n_users, n_items, n_events, late_repeats):
    """Random log with repeats, tied timestamps and users first seen out
    of id order; ``late_repeats`` repeat events get an earlier timestamp
    than the user's events before them."""
    users = rng.integers(0, n_users, n_events)
    items = rng.integers(0, n_items, n_events)
    ts = np.cumsum(rng.integers(0, 3, n_events))      # gaps of 0 tie
    seen: dict[int, list[int]] = {}
    for k in range(n_events):
        seen.setdefault(int(users[k]), []).append(k)
    repeats = [ks for ks in seen.values() if len(ks) > 1]
    for _ in range(late_repeats if repeats else 0):
        ks = repeats[int(rng.integers(len(repeats)))]
        a, b = sorted(rng.choice(len(ks), 2, replace=False))
        items[ks[b]] = items[ks[a]]
        ts[ks[b]] = ts[ks[a]] - int(rng.integers(0, 3))
    return EventLog(users, items, ts, list(range(n_users)), list(range(n_items)))


def _profiles(store):
    return [(u, p.user, p.items, p.ts, list(p.pos.items()))
            for u, p in store.profiles.items()]


def test_build_profiles_matches_per_event_appends():
    rng = np.random.default_rng(5)
    logs = [_random_log(rng, int(rng.integers(1, 12)), int(rng.integers(1, 20)),
                        int(rng.integers(1, 80)), int(rng.integers(0, 4)))
            for _ in range(300)]
    logs.append(EventLog([], [], [], [], []))
    for log in logs:
        want = _append_profiles(log)
        got = build_profiles(log)
        assert _profiles(got) == _profiles(want)     # users in first-event order
        assert all(type(i) is int for p in got for i in [*p.items, *p.ts])
        assert (got.num_users, got.num_items) == (log.num_users, log.num_items)


@pytest.mark.parametrize("users, items, widths", [
    # raw ids of 8 bits of range, and past the int64 range
    (np.arange(-128, 128), [-2**63, 2**63 - 1, -1, 0, 5], ("u1", "u8", "u1", "u1")),
    # over 65,536 users, 32-bit raw and dense keys; 16-bit item keys
    (np.arange(70_000) * 3 - 10**12, np.arange(0, 60_000, 7), ("u4", "u2", "u4", "u2")),
    (np.arange(-3000, 3000) * 7, np.arange(70_000) - 2**62, ("u2", "u4", "u2", "u4")),
], ids=["8-bit-users", "32-bit-users", "32-bit-items"])
def test_parse_and_build_profiles_at_every_sort_key_width(users, items, widths):
    rng = np.random.default_rng(len(users))
    n = 2 * max(len(users), len(items))
    # every id at least once, a few events each
    raw = [np.concatenate([ids, rng.choice(ids, n - len(ids))])[rng.permutation(n)]
           for ids in (np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64))]
    ts = rng.integers(0, 1000, n).tolist()                  # many ties
    raw_u, raw_i = (col.tolist() for col in raw)
    log = parse_lines([f"{u}\t{i}\t1\t{t}" for u, i, t in zip(raw_u, raw_i, ts)], "ml-tab")
    order = sorted(range(n), key=ts.__getitem__)
    assert _triples(log) == [(raw_u[k], raw_i[k], ts[k]) for k in order]
    assert log.user_ids == list(dict.fromkeys(raw_u))
    assert log.item_ids == list(dict.fromkeys(raw_i))
    keys = (*raw, log.users, log.items)
    assert tuple(ingest._sort_key(key).dtype.str[1:] for key in keys) == widths
    assert _profiles(build_profiles(log)) == _profiles(_append_profiles(log))


def test_build_profiles_rejects_an_unsorted_log():
    # user 1's second item is older than its first; the earlier-ts
    # repeat of item 0 by user 0 is a repeat, never checked
    log = EventLog([0, 1, 0, 0, 1], [0, 1, 1, 0, 2], [10, 20, 30, 5, 15],
                   [0, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="late event for user 1: item 2"):
        _append_profiles(log)
    with pytest.raises(ValueError, match="timestamp order"):
        build_profiles(log)
    assert list(build_profiles(log.slice(0, 4)).get(0).items) == [0, 1]
    rng = np.random.default_rng(6)
    for _ in range(200):
        log = _random_log(rng, 3, 6, 12, 0)
        swap = rng.integers(0, len(log), 2)
        log.ts[swap] = log.ts[swap[::-1]]             # unsorted about half the time
        try:
            want = _profiles(_append_profiles(log))
        except ValueError:
            with pytest.raises(ValueError):
                build_profiles(log)
        else:
            assert _profiles(build_profiles(log)) == want


def _reference_boundaries(ts, delta):
    """Reference: the pack rule as a loop over one profile's timestamps."""
    return [k for k in range(len(ts)) if k == 0 or ts[k] > ts[k - 1] + delta]


def _check_profiles(store):
    """What callers outside the package read of a profile."""
    profs = list(store)
    for pu in profs:
        pos = pu.pos
        assert len(pos) == len(pu) and all(pu.items[k] == i for i, k in pos.items())
        assert all(type(i) is int and type(t) is int for i, t in zip(pu.items, pu.ts))
        for pv in profs:
            same = pu.items == pv.items
            assert type(same) is bool and same == (list(pu.items) == list(pv.items))
        for delta in (0, 1, 60):
            assert pu.cip_boundaries(delta) == _reference_boundaries(list(pu.ts), delta)


def test_profiles_keep_their_contract_after_build_and_extend():
    rng = np.random.default_rng(11)
    for _ in range(150):
        log = _random_log(rng, int(rng.integers(1, 12)), int(rng.integers(1, 20)),
                          int(rng.integers(1, 80)), 0)
        cut = int(rng.integers(0, len(log) + 1))
        store = build_profiles(log.slice(0, cut))
        _check_profiles(store)
        # outputs held across the appends below: none may pin a profile
        held = [all_cips(store, 60), pack_arrays(store, 60),
                [p.partition(60) for p in store]]
        for p in store:
            with pytest.raises(ValueError) as raised:
                p.cip_boundaries(-1)
            held.append(raised)     # with its traceback's frames
        batches = {}
        for u, i, t in zip(log.users[cut:].tolist(), log.items[cut:].tolist(),
                           log.ts[cut:].tolist()):
            batches.setdefault(u, []).append((i, t))
        held.append(pack_arrays(store, 60, store.extend(batches)))
        _check_profiles(store)
        assert ({u: (p.items, p.ts) for u, p in store.profiles.items()}
                == {u: (p.items, p.ts) for u, p in build_profiles(log).profiles.items()})
        for u, prof in list(store.profiles.items()):
            n, item, t = len(prof), prof.items[-1], prof.ts[-1]
            assert not store.add_event(u, item, t + 1) and len(prof) == n
            if len(prof) > 1:       # an item already held never counts as late
                assert not store.add_event(u, prof.items[0], t - 1)
            assert store.add_event(u, store.num_items, t) and len(prof) == n + 1


def test_build_profiles_keeps_at_most_32_bytes_per_event():
    rng = np.random.default_rng(13)
    n_users, n_items, n_events = 500, 2000, 50_000
    log = EventLog(rng.integers(0, n_users, n_events), rng.integers(0, n_items, n_events),
                   np.cumsum(rng.integers(0, 90, n_events)),
                   list(range(n_users)), list(range(n_items)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        store = build_profiles(log)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    events = sum(map(len, store))
    assert events > 0.95 * n_events
    assert kept <= 32 * events, f"{kept / events:.1f} bytes per event"


def test_pack_arrays_match_partition():
    rng = np.random.default_rng(7)
    for _ in range(100):
        store = ProfileStore(0, 0)
        for u, i, t in sorted(zip(rng.integers(0, 8, 40).tolist(),
                                  rng.integers(0, 15, 40).tolist(),
                                  np.cumsum(rng.integers(0, 90, 40)).tolist()),
                              key=lambda e: e[2]):
            store.add_event(u, i, t)
        for delta in (0, 60, 10**12):
            packs = [c for u in sorted(store.profiles)
                     for c in store.profiles[u].partition(delta)]
            items, sizes, new = pack_arrays(store, delta)
            assert items.tolist() == [i for c in packs for i in c]
            assert sizes.tolist() == [len(c) for c in packs]
            assert new.all() and len(new) == len(items)
            assert all_cips(store, delta) == packs
    empty = pack_arrays(ProfileStore(0, 0), 60)
    assert [a.tolist() for a in empty] == [[], [], []]
    with pytest.raises(ValueError):
        pack_arrays(store, -1)


def test_grown_packs_match_a_walk_over_partition():
    rng = np.random.default_rng(19)
    for _ in range(300):
        log = _random_log(rng, int(rng.integers(1, 8)), int(rng.integers(1, 15)),
                          int(rng.integers(1, 60)), 0)
        cut = int(rng.integers(0, len(log) + 1))
        store = build_profiles(log.slice(0, cut))
        batches = {}
        for u, i, t in zip(log.users[cut:].tolist(), log.items[cut:].tolist(),
                           log.ts[cut:].tolist()):
            batches.setdefault(u, []).append((i, t))
        delta = int(rng.choice([0, 1, 3, 10**12]))
        before = store.extend(batches)
        want = ([], [], [])
        for u, base in before.items():
            b = 0
            for pack in store.profiles[u].partition(delta):
                if b + len(pack) > base:            # the pack holds a new item
                    want[0].extend(pack)
                    want[1].append(len(pack))
                    want[2].extend(b + k >= base for k in range(len(pack)))
                b += len(pack)
        assert tuple(a.tolist() for a in pack_arrays(store, delta, before)) == want


def test_popular_ranking_orders_and_excludes_unseen():
    store = ProfileStore(0, 0)
    store.add_event(0, 5, 10)
    store.add_event(1, 5, 10)
    store.add_event(0, 2, 40)
    store.add_event(1, 3, 40)
    store.item_ids += [6, 7]            # two catalog items nobody consumed
    # count desc, ties by ascending item id; never-consumed items excluded
    assert store.popular_ranking() == [5, 2, 3]


def test_extend_appends_in_user_order_and_reports_old_lengths():
    store = ProfileStore(0, 0)
    store.add_event(0, 5, 10)
    ranking = store.popular_ranking()
    # item 5 is already in user 0's profile; 7 repeats within the batch
    before = store.extend({2: [(7, 20), (7, 25)], 0: [(5, 1), (6, 30)]})
    assert before == {0: 1, 2: 0} and list(before) == [0, 2]
    assert list(store.get(0).items) == [5, 6] and list(store.get(2).items) == [7]
    assert store.num_users == 3 and store.num_items == 8
    assert ranking == [5] and store.popular_ranking() == [5, 6, 7]


def test_extend_makes_no_profile_of_dropped_events():
    store = ProfileStore(0, 0)
    assert store.extend({5: []}) == {}
    assert store.get(5) is None and store.profiles == {}
    assert (store.num_users, store.num_items) == (0, 0)
    store.add_event(1, 5, 100)
    profiles = {u: (list(p.items), list(p.ts)) for u, p in store.profiles.items()}
    # a batch of held items only, one repeated, and a user with no events
    assert store.extend({1: [(5, 200), (5, 300)], 3: []}) == {}
    assert {u: (list(p.items), list(p.ts)) for u, p in store.profiles.items()} == profiles
    assert (store.num_users, store.num_items) == (2, 6)
    assert not store.add_event(1, 5, 400)
    assert store.add_event(1, 6, 400) and list(store.get(1).items) == [5, 6]


def test_extend_rejects_a_late_batch_before_appending():
    store = ProfileStore(0, 0)
    store.add_event(1, 5, 100)
    for late in ({0: [(1, 50)], 1: [(2, 90)]},             # older than the profile
                 {0: [(1, 50)], 1: [(2, 200), (3, 150)]}):  # older than the batch
        with pytest.raises(ValueError):
            store.extend(late)
        assert store.get(0) is None and list(store.get(1).items) == [5]
    # an already-held item never counts as late
    store.extend({1: [(5, 1), (4, 100)]})
    assert list(store.get(1).items) == [5, 4]


def test_popular_excludes_and_truncates():
    store = ProfileStore(0, 0)
    store.extend({0: [(1, 1), (2, 2), (3, 3)], 1: [(2, 1), (3, 2)], 2: [(3, 1)]})
    assert store.popular_ranking() == [3, 2, 1]
    assert store.popular(2) == [3, 2]
    assert store.popular(2, exclude={3}) == [2, 1]
    assert store.popular(5, exclude=(2, 3)) == [1]


class _CountingProfiles(dict):
    """Profile dict that counts full passes over its values."""

    passes = 0

    def values(self):
        self.passes += 1
        return super().values()


def test_item_counts_follow_observed_batches_without_a_recount():
    events = [(0, 1, 10), (1, 1, 20), (1, 2, 30), (2, 0, 40)]
    store = ProfileStore(0, 0)
    for u, i, t in events:
        store.add_event(u, i, t)
    store.profiles = _CountingProfiles(store.profiles)
    assert list(store.item_counts()) == [1, 2, 1]
    # a new user, a new item, an item already held (dropped) and a
    # repeat inside the batch
    batches = [{3: [(2, 50)], 0: [(5, 60)]},
               {1: [(1, 70), (4, 80), (4, 90)]},
               {0: [(2, 100)], 4: [(5, 110), (0, 120)]}]
    for batch in batches:
        store.extend(batch)
        for u, items in batch.items():
            events += [(u, i, t) for i, t in items]
        full = ProfileStore(0, 0)
        for u, i, t in events:
            full.add_event(u, i, t)
        recount = np.zeros(store.num_items, dtype=np.int64)
        for p in full.profiles.values():
            recount[p.items] += 1
        assert np.array_equal(store.item_counts(), recount)
        assert store.popular_ranking() == full.popular_ranking()
    assert store.profiles.passes == 1     # counted once, then kept up to date
    store.item_ids += [6, 7, 8]           # a catalog grown without events
    assert list(store.item_counts()) == [2, 2, 3, 0, 1, 2, 0, 0, 0]


def test_all_cips_sorted_by_user():
    store = ProfileStore(0, 0)
    store.add_event(3, 1, 10)
    store.add_event(0, 2, 10)
    store.add_event(0, 3, 500)
    cips = all_cips(store, 60)
    assert cips == [[2], [3], [1]]


def test_add_event_gives_new_dense_ids_themselves_as_raw_ids():
    store = ProfileStore(0, 0)
    store.extend({2: [(4, 10)], 0: [(1, 20)]})
    assert store.user_ids == [0, 1, 2] and store.item_ids == [0, 1, 2, 3, 4]
    # ids already mapped (here, raw ids appended ahead of the event) stay
    store.user_ids.append(77)
    store.add_event(3, 5, 30)
    assert store.user_ids == [0, 1, 2, 77] and store.item_ids == list(range(6))
    assert (store.num_users, store.num_items) == (4, 6)


def test_add_event_never_reuses_a_raw_id():
    store = ProfileStore(2, 2, user_ids=[5, 2], item_ids=[1, 0])
    store.extend({2: [(2, 10)], 4: [(3, 20)]})
    # raw id 2 is dense user 1's, so dense user 2 takes the next free
    # number; dense item 2 finds raw id 2 free and keeps its own number
    assert store.user_ids == [5, 2, 3, 4, 6]
    assert store.item_ids == [1, 0, 2, 3]


def _loop_pairs(seqs, window, ends):
    """Reference: every (p, q) of one sequence with 0 < q - p <= window
    and flat q in ``ends``, by q, then by ascending q - p, as flat
    positions."""
    out = []
    base = 0
    for seq in seqs:
        for q in range(len(seq)):
            for p in range(q - 1, -1, -1):
                if base + q in ends and (window is None or q - p <= window):
                    out.append((base + p, base + q))
        base += len(seq)
    return out


def test_pair_positions_matches_a_double_loop():
    rng = np.random.default_rng(11)
    for _ in range(100):
        seqs = [rng.integers(0, 40, int(rng.integers(0, 10))).tolist()
                for _ in range(int(rng.integers(0, 6)))]
        sizes = [len(seq) for seq in seqs]
        every = range(sum(sizes))
        for window in (None, 0, 1, 5):
            p, q = pair_positions(sizes, window)
            assert list(zip(p.tolist(), q.tolist())) == _loop_pairs(seqs, window, every)


def test_pair_positions_with_ends_matches_a_double_loop():
    rng = np.random.default_rng(12)
    for _ in range(200):
        sizes = rng.integers(0, 10, int(rng.integers(0, 6)))
        seqs = [[0] * int(n) for n in sizes]
        assert run_offsets(sizes).tolist() == [k for n in sizes for k in range(n)]
        ends = np.flatnonzero(rng.random(int(sizes.sum())) < rng.random())
        for window in (None, 0, 1, 5):
            p, q = pair_positions(sizes, window, ends)
            want = _loop_pairs(seqs, window, set(ends.tolist()))
            assert list(zip(p.tolist(), q.tolist())) == want


def test_pair_positions_edge_cases():
    for sizes in ([], [0], [0, 1]):
        p, q = pair_positions(sizes, 3)
        assert len(p) == len(q) == 0 and p.dtype == q.dtype == np.int64
    assert pair_positions([3], 0)[0].tolist() == []
    with pytest.raises(ValueError):
        pair_positions([2], -1)
