"""Model and event files: round trips, raw-id remapping, error paths."""

import numpy as np
import pytest

from ciprec import persistence
from ciprec.cip_i import CipIModel
from ciprec.cip_u import CipUModel
from ciprec.deepcip import DeepCipRecommender, TrainConfig, train
from ciprec.fism import FismModel
from ciprec.ingest import EventLog, ProfileStore, all_cips, build_profiles, parse_events
from ciprec.persistence import (FormatError, dump_events, load_events,
                                load_model, peek_kind, save_model)
from ciprec.popularity import PopularityModel

from helpers import batches_from, random_stream


def _gappy_log(rng, n_users=25, n_items=50, n_events=350):
    """Raw ids with gaps, so dense ids cannot be mistaken for raw ids."""
    rows = []
    seen = set()
    t = 1000
    while len(rows) < n_events:
        u = (int(rng.integers(1, n_users)) * 3) + 1
        i = (int(rng.integers(1, n_items)) * 7) + 2
        if (u, i) in seen:
            continue
        seen.add((u, i))
        t += int(rng.integers(5, 200))
        rows.append(f"{u}\t{i}\t3\t{t}")
    return parse_events(rows, "ml-tab")


def _raw_triples(log):
    return [(log.user_ids[u], log.item_ids[i], int(t))
            for u, i, t in zip(log.users, log.items, log.ts)]


def test_events_round_trip(tmp_path):
    log = _gappy_log(np.random.default_rng(1))
    path = tmp_path / "ev.ciprec"
    dump_events(log, path)
    assert peek_kind(path) == "events"
    log2 = load_events(path)
    assert _raw_triples(log2) == _raw_triples(log)


def test_events_file_errors(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("not a model file\n")
    with pytest.raises(FormatError):
        load_events(bad)
    with pytest.raises(FormatError):
        peek_kind(bad)
    empty = tmp_path / "empty"
    empty.write_text("")
    with pytest.raises(FormatError):
        load_events(empty)


def _recommendations(model, n=8):
    store = model.profiles
    out = {}
    for dense_u in range(store.num_users):
        out[store.user_ids[dense_u]] = [store.item_ids[i]
                                        for i in model.recommend(dense_u, n)]
    return out


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("persist")
    log = _gappy_log(np.random.default_rng(7))
    events_path = tmp / "events.ciprec"
    dump_events(log, events_path)
    return log, build_profiles(log), events_path, tmp


def test_cip_u_round_trip(corpus):
    log, store, events_path, tmp = corpus
    model = CipUModel.train(store, 3, 10)
    path = tmp / "m.cipu"
    save_model(model, path, events_path)
    assert peek_kind(path) == "cip-u"
    loaded = load_model(path)
    assert _recommendations(loaded) == _recommendations(model)
    # pair counts survive under raw-id remapping
    def raw_counts(m):
        st = m.profiles
        users = sorted(st.profiles)
        out = {}
        for a in range(len(users)):
            for b in range(a + 1, len(users)):
                c = m.pair_state(users[a], users[b]).hp_count
                if c:
                    x, y = st.user_ids[users[a]], st.user_ids[users[b]]
                    out[(min(x, y), max(x, y))] = c
        return out

    assert raw_counts(model) == raw_counts(loaded)
    assert loaded.params == model.params


def test_cip_i_round_trip(corpus):
    log, store, events_path, tmp = corpus
    model = CipIModel.train(store, 60, 10)
    path = tmp / "m.cipi"
    save_model(model, path, events_path)
    loaded = load_model(path)
    assert _recommendations(loaded) == _recommendations(model)

    def raw_scores(m):
        ids = m.profiles.item_ids
        return {(ids[a], ids[b]): s for a, row in m.score.items()
                for b, s in row.items()}

    assert raw_scores(loaded) == raw_scores(model)
    assert {store.item_ids[i]: c for i, c in model.card.items()} == \
        {loaded.profiles.item_ids[i]: c for i, c in loaded.card.items()}


def test_deepcip_round_trip_bit_exact(corpus):
    log, store, events_path, tmp = corpus
    emb = train(all_cips(store, 60), TrainConfig(dim=12, epochs=2, seed=9))
    model = DeepCipRecommender(emb, store, 60)
    path = tmp / "m.deepcip"
    save_model(model, path, events_path)
    loaded = load_model(path)
    assert isinstance(loaded, DeepCipRecommender)
    assert _recommendations(loaded) == _recommendations(model)
    # vector payloads survive bit-exactly, matched through raw item ids
    m2 = loaded.model
    raw1 = {store.item_ids[dense]: emb.row[dense] for dense in emb.row}
    raw2 = {loaded.profiles.item_ids[dense]: m2.row[dense] for dense in m2.row}
    assert sorted(raw1) == sorted(raw2)
    for raw, r1 in raw1.items():
        r2 = raw2[raw]
        assert np.array_equal(emb.syn0[r1], m2.syn0[r2])
        assert np.array_equal(emb.syn1[r1], m2.syn1[r2])
    assert m2.config.window == emb.config.window
    assert loaded.delta == model.delta


def test_fism_round_trip_bit_exact(corpus):
    log, store, events_path, tmp = corpus
    model = FismModel.train(store, 60, 6, 0.5, seed=13)
    path = tmp / "m.fism"
    save_model(model, path, events_path)
    loaded = load_model(path)
    assert _recommendations(loaded) == _recommendations(model)
    # factors land in the loaded store's dense order, bit-exact per raw id
    for raw in store.item_ids:
        i1 = store.item_ids.index(raw)
        i2 = loaded.profiles.item_ids.index(raw)
        assert np.array_equal(model.p[i1], loaded.p[i2])
        assert np.array_equal(model.q[i1], loaded.q[i2])
        assert model.b_item[i1] == loaded.b_item[i2]
    for raw in store.user_ids:
        u1 = store.user_ids.index(raw)
        u2 = loaded.profiles.user_ids.index(raw)
        assert model.b_user[u1] == loaded.b_user[u2]
    assert loaded.alpha == model.alpha


def test_popularity_round_trip(corpus):
    log, store, events_path, tmp = corpus
    model = PopularityModel.train(store)
    path = tmp / "m.pop"
    save_model(model, path, events_path)
    loaded = load_model(path)
    assert _recommendations(loaded) == _recommendations(model)


def test_popularity_counts_must_match_the_events(tmp_path, corpus):
    log, store, events_path, tmp = corpus
    path = tmp_path / "m.pop"
    save_model(PopularityModel.train(store), path, events_path)
    load_model(path)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[2].startswith("counts ")
    raw, count = lines[3].split()
    # copies sit next to the original, so the events reference resolves
    tampered = tmp_path / "tampered.pop"
    tampered.write_text("".join(lines[:3] + [f"{raw} {int(count) + 997}\n"]
                                + lines[4:]))
    truncated = tmp_path / "truncated.pop"
    truncated.write_text("".join(lines[:-1]))
    for bad in (tampered, truncated):
        with pytest.raises(FormatError):
            load_model(bad)


def _cip_u_file(tmp_path, corpus):
    """A saved cip-u model: the path, its header lines, its pair rows and
    one raw user pair that has no row."""
    log, store, events_path, tmp = corpus
    path = tmp_path / "m.cipu"
    save_model(CipUModel.train(store, 3, 10), path, events_path)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[4] == f"pairs {len(lines) - 5}\n"
    listed = {tuple(int(x) for x in row.split()[:2]) for row in lines[5:]}
    raw = sorted(log.user_ids)
    absent = next((a, b) for a in raw for b in raw
                  if a < b and (a, b) not in listed)
    return path, lines[:4], lines[5:], absent


def _write_pairs(path, head, rows, name):
    out = path.parent / name      # next to the original: same events reference
    out.write_text("".join(head + [f"pairs {len(rows)}\n"] + rows))
    return out


def test_cip_u_pairs_must_match_the_events(tmp_path, corpus):
    path, head, rows, (a, b) = _cip_u_file(tmp_path, corpus)
    load_model(path)
    u, v, hp = rows[0].split()
    bad = {
        "changed": [f"{u} {v} {int(hp) + 1}\n"] + rows[1:],
        "missing": rows[1:],
        "extra": rows + [f"{a} {b} 1\n"],
    }
    for name, bad_rows in bad.items():
        with pytest.raises(FormatError, match="do not match"):
            load_model(_write_pairs(path, head, bad_rows, name))
    for name, row in (("text", f"{u} {v} x\n"), ("huge", f"{u} {v} {2**70}\n")):
        with pytest.raises(FormatError, match="64-bit integers"):
            load_model(_write_pairs(path, head, [row] + rows[1:], name))
    truncated = path.parent / "truncated"
    truncated.write_text("".join(head + [f"pairs {len(rows)}\n"] + rows[:-1]))
    with pytest.raises(FormatError, match="truncated"):
        load_model(truncated)


def test_cip_u_file_listing_zero_count_pairs_loads(tmp_path, corpus):
    # older files also listed pairs with common items but no hammock pair
    path, head, rows, (a, b) = _cip_u_file(tmp_path, corpus)
    old = load_model(_write_pairs(path, head, rows + [f"{b} {a} 0\n"], "old"))
    assert _recommendations(old) == _recommendations(load_model(path))


def test_model_file_errors(tmp_path, corpus):
    log, store, events_path, tmp = corpus
    model = CipIModel.train(store, 60, 10)
    path = tmp_path / "m.cipi"
    save_model(model, path, events_path)
    # moving the model away from its events reference must fail loudly
    moved = tmp_path / "sub" / "m.cipi"
    moved.parent.mkdir()
    moved.write_bytes(path.read_bytes())
    with pytest.raises(FormatError):
        load_model(moved)
    # unknown kind
    bad = tmp_path / "bad.model"
    bad.write_text("CIPREC1 wat\n")
    with pytest.raises(FormatError):
        load_model(bad)
    with pytest.raises(OSError):
        load_model(tmp_path / "does-not-exist")


def test_save_load_keeps_relative_reference_portable(tmp_path, corpus):
    # moving the model together with its events file keeps it loadable
    log, store, events_path, tmp = corpus
    model = PopularityModel.train(store)
    a = tmp_path / "a"
    a.mkdir()
    ev = a / "events.ciprec"
    dump_events(log, ev)
    path = a / "m.pop"
    save_model(model, path, ev)
    b = tmp_path / "b"
    b.mkdir()
    (b / "events.ciprec").write_bytes(ev.read_bytes())
    (b / "m.pop").write_bytes(path.read_bytes())
    loaded = load_model(b / "m.pop")
    assert _recommendations(loaded) == _recommendations(model)


@pytest.mark.parametrize("kind", ["cip-u", "cip-i", "popularity"])
def test_model_grown_only_by_observe_saves_and_loads(tmp_path, kind):
    model = {"cip-u": lambda: CipUModel(3, 5),
             "cip-i": lambda: CipIModel(60, 5),
             "popularity": lambda: PopularityModel(ProfileStore(0, 0))}[kind]()
    # ids numbered by first appearance, as a loaded events file numbers
    # them, so popularity ties break the same way after the round trip
    uid, iid = {}, {}
    events = [(uid.setdefault(u, len(uid)), iid.setdefault(i, len(iid)), t)
              for u, i, t in random_stream(np.random.default_rng(4), 10, 25, 150)]
    for lo in range(0, len(events), 10):
        model.observe(batches_from(events[lo:lo + 10]))
    store = model.profiles
    users, items, ts = (np.asarray(col) for col in zip(*events))
    log = EventLog(users, items, ts, np.full(len(events), np.nan),
                   store.user_ids, store.item_ids)
    events_path = tmp_path / "events.ciprec"
    dump_events(log, events_path)
    path = tmp_path / f"model.{kind}"
    save_model(model, path, events_path)
    loaded = load_model(path)
    assert len(loaded.profiles) == store.num_users
    assert _recommendations(loaded, 10) == _recommendations(model, 10)


def test_observed_new_user_keeps_its_own_raw_id(tmp_path):
    log = parse_events(["5\t10\t3\t100", "2\t20\t3\t200"], "ml-tab")
    model = PopularityModel(build_profiles(log))
    model.observe({2: [(0, 300)]})              # dense user 2: new
    store = model.profiles
    assert len(set(store.user_ids)) == store.num_users == 3
    users = np.array([0, 1, 2])
    full = EventLog(users, np.array([0, 1, 0]), np.array([100, 200, 300]),
                    np.full(3, np.nan), store.user_ids, store.item_ids)
    events_path = tmp_path / "events.ciprec"
    dump_events(full, events_path)
    save_model(model, tmp_path / "model.pop", events_path)
    assert len(load_model(tmp_path / "model.pop").profiles) == 3


def _cip_i_file(tmp_path, corpus):
    """A saved cip-i model: the path, its lines and the index of its
    ``scores`` line."""
    log, store, events_path, tmp = corpus
    path = tmp_path / "m.cipi"
    save_model(CipIModel.train(store, 60, 10), path, events_path)
    lines = path.read_text().splitlines(keepends=True)
    return path, lines, lines.index(next(x for x in lines if x.startswith("scores ")))


def test_cip_i_item_missing_from_the_events_raises_format_error(tmp_path, corpus):
    path, lines, at = _cip_i_file(tmp_path, corpus)
    _, j, s = lines[at + 1].split()
    card = path.parent / "card"
    card.write_text("".join(lines[:5] + ["99 1\n"] + lines[6:]))
    score = path.parent / "score"
    score.write_text("".join(lines[:at + 1] + [f"99 {j} {s}\n"] + lines[at + 2:]))
    for bad in (card, score):
        with pytest.raises(FormatError, match="not an item of its events"):
            load_model(bad)


def test_cip_i_zero_card_of_a_scored_item_raises_format_error(tmp_path, corpus):
    path, lines, at = _cip_i_file(tmp_path, corpus)
    i = lines[at + 1].split()[0]
    row = next(k for k in range(5, at) if lines[k].split()[0] == i)
    zero = path.parent / "zero"
    zero.write_text("".join(lines[:row] + [f"{i} 0\n"] + lines[row + 1:]))
    with pytest.raises(FormatError, match="not a positive integer"):
        load_model(zero)
    uncarded = path.parent / "uncarded"
    uncarded.write_text("".join(lines[:4] + [f"card {at - 6}\n"] + lines[5:row]
                                + lines[row + 1:]))
    with pytest.raises(FormatError, match="without a card"):
        load_model(uncarded)


@pytest.mark.parametrize("score", ["0.0", "-1.5", "inf", "nan", "x"])
def test_cip_i_score_not_positive_finite_raises_format_error(tmp_path, corpus, score):
    path, lines, at = _cip_i_file(tmp_path, corpus)
    i, j, _ = lines[at + 1].split()
    bad = path.parent / "bad"
    bad.write_text("".join(lines[:at + 1] + [f"{i} {j} {score}\n"] + lines[at + 2:]))
    with pytest.raises(FormatError, match="positive finite"):
        load_model(bad)


def test_failed_save_leaves_the_previous_file(tmp_path, corpus, monkeypatch):
    log, store, events_path, tmp = corpus
    path = tmp_path / "m.cipi"
    save_model(CipIModel.train(store, 60, 10), path, events_path)
    before = path.read_bytes()

    def crash(model, out, ref):
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("CIPREC1 cip-i\n")
        raise RuntimeError("disk full")

    monkeypatch.setattr(persistence, "_save_cip_i", crash)
    with pytest.raises(RuntimeError, match="disk full"):
        save_model(CipIModel.train(store, 60, 5), path, events_path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.cipi"]
    assert load_model(path).k == 10


def test_failed_dump_events_leaves_the_previous_file(tmp_path):
    log = _gappy_log(np.random.default_rng(2))
    path = tmp_path / "ev.ciprec"
    dump_events(log, path)
    before = path.read_bytes()
    # a user id table missing the last users fails part-way through the rows
    broken = EventLog(log.users, log.items, log.ts, log.ratings,
                      log.user_ids[:len(log.user_ids) // 2], log.item_ids)
    with pytest.raises(IndexError):
        dump_events(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ev.ciprec"]
