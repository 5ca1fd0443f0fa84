"""Model and event files: round trips, raw-id remapping, error paths."""

import hashlib

import numpy as np
import pytest

from ciprec import persistence
from ciprec.cip_i import CipIModel
from ciprec.cip_u import CipUModel
from ciprec.deepcip import DeepCipRecommender, TrainConfig, train
from ciprec.fism import FismModel
from ciprec.ingest import EventLog, ProfileStore, all_cips, build_profiles
from ciprec.persistence import (FormatError, dump_events, load_events,
                                load_model, peek_kind, save_model)
from ciprec.popularity import PopularityModel

from helpers import batches_from, cards, parse_lines, random_stream


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
    return parse_lines(rows, "ml-tab")


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
    assert {store.item_ids[i]: c for i, c in cards(model).items()} == \
        {loaded.profiles.item_ids[i]: c for i, c in cards(loaded).items()}


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


_TRAIN = {
    "cip-u": lambda store: CipUModel.train(store, 3, 10),
    "cip-i": lambda store: CipIModel.train(store, 60, 10),
    "popularity": PopularityModel.train,
    "deepcip": lambda store: DeepCipRecommender(
        train(all_cips(store, 60), TrainConfig(dim=4, epochs=1, seed=3)), store, 60),
    "fism": lambda store: FismModel.train(store, 60, 3, 0.5, seed=3),
}


def _saved(tmp_path, corpus, kind):
    """A model of ``kind`` saved next to its own copy of the events file:
    the model path and the events file's lines."""
    log, store, events_path, tmp = corpus
    events = tmp_path / "events.ciprec"
    events.write_bytes(events_path.read_bytes())
    path = tmp_path / f"m.{kind}"
    save_model(_TRAIN[kind](store), path, events)
    load_model(path)
    return path, events.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("kind", sorted(_TRAIN))
def test_events_file_edited_after_the_save_raises_format_error(tmp_path, corpus, kind):
    path, lines = _saved(tmp_path, corpus, kind)
    u, i, t = lines[5].split(",")
    edits = {
        "timestamp": lines[:5] + [f"{u},{i},{int(t) + 1}\n"] + lines[6:],
        "dropped": lines[:-1],
        "appended": lines + [f"{u},999999,{int(lines[-1].split(',')[2]) + 1}\n"],
    }
    for edited in edits.values():
        (tmp_path / "events.ciprec").write_text("".join(edited))
        with pytest.raises(FormatError, match="changed after the model was saved"):
            load_model(path)


@pytest.mark.parametrize("kind", sorted(_TRAIN))
def test_model_file_without_its_events_digest_raises_format_error(tmp_path, corpus,
                                                                  kind):
    path, _ = _saved(tmp_path, corpus, kind)
    data = path.read_bytes()
    head, _, rest = data.partition(b"\nevents-digest ")
    assert rest                               # the third line
    path.write_bytes(head + b"\n" + rest.partition(b"\n")[2])
    with pytest.raises(FormatError, match="no events digest"):
        load_model(path)


def _sections(path, n_params: int) -> tuple[list, list, bytes]:
    """A saved model file's three head lines, its ``n_params`` param
    lines, and the bytes after them."""
    *lines, rest = path.read_bytes().split(b"\n", 3 + n_params)
    return lines[:3], lines[3:], rest


@pytest.mark.parametrize("kind", sorted(_TRAIN))
def test_each_kind_s_file_holds_its_model_params(tmp_path, corpus, kind):
    params = _TRAIN[kind](corpus[1]).params
    assert set(persistence._KINDS[kind][0]) == set(params)
    path, _ = _saved(tmp_path, corpus, kind)
    _, rows, rest = _sections(path, len(params))
    assert rows == [f"{key} {value}".encode() for key, value in params.items()]
    assert rest.startswith(b"rows-digest ") == (kind in ("deepcip", "fism"))


# a value out of range for each param that has one
_OUT_OF_RANGE = {"delta_h": b"-1", "delta": b"-1", "k": b"0", "dim": b"0",
                 "window": b"0", "negatives": b"-1", "lr": b"0", "epochs": b"0",
                 "seed": b"-1"}


@pytest.mark.parametrize("kind", ["cip-i", "cip-u", "deepcip", "fism"])
def test_bad_params_in_a_derived_file_raise_format_error(tmp_path, corpus, kind):
    params = _TRAIN[kind](corpus[1]).params
    path, _ = _saved(tmp_path, corpus, kind)
    head, rows, rest = _sections(path, len(params))
    for k, row in enumerate(rows):
        name, _, value = row.partition(b" ")
        others = rows[:k] + rows[k + 1:]
        bad = {
            "missing": others,
            "cut": others + [name],
            "mislabelled": others + [name + b"x " + value],
            "unknown": [b"wat 1"] + rows,
            "repeated": rows + [row],
            "mistyped": others + [name + b" ten"],
        }
        if name.decode() in _OUT_OF_RANGE:
            bad["out of range"] = others + [name + b" " + _OUT_OF_RANGE[name.decode()]]
        for edit, edited in bad.items():
            path.write_bytes(b"\n".join(head + edited + [rest]))
            with pytest.raises(FormatError):
                load_model(path)
                pytest.fail(f"{kind}: {name.decode()} {edit} loaded")
    path.write_bytes(b"\n".join(head + rows[::-1] + [rest]))    # any order loads
    assert load_model(path).params == params


# the param lines of deepcip and fism files before they had a rows digest
_LABELLED = {
    "deepcip": b"delta 60\nn 1 d 4\nwindow 5 negatives 5 lr 0.025 min-lr 0.0001 "
               b"epochs 1 seed 3\nitems 2\nbinary\n",
    "fism": b"m 1 n 1 k 3 alpha 0.5\ndelta 60\nusers 4\nitems 2\nbinary\n",
}


@pytest.mark.parametrize("kind", sorted(_LABELLED))
def test_a_file_of_labelled_param_lines_must_be_retrained(tmp_path, corpus, kind):
    path, _ = _saved(tmp_path, corpus, kind)
    head, _, _ = _sections(path, 0)
    path.write_bytes(b"\n".join(head) + b"\n" + _LABELLED[kind] + bytes(64))
    with pytest.raises(FormatError, match="retrained with 'ciprec train'"):
        load_model(path)


def _edit_id_line(path, key: str, edit) -> None:
    """Rewrite the ``key id id ...`` line of a saved deepcip or fism file
    with ``edit(ids)``, and give the file the rows digest of its new
    bytes, so the edit passes the digest and meets the id checks."""
    head, _, rest = path.read_bytes().partition(b"\nrows-digest ")
    ids, marker, payload = rest.partition(b"\n")[2].partition(b"\nbinary\n")
    lines = ids.decode("utf-8").split("\n")
    [k] = [k for k, line in enumerate(lines) if line.startswith(key + " ")]
    lines[k] = " ".join([key] + edit(lines[k].split()[1:]))
    rest = "\n".join(lines).encode() + marker + payload
    digest = hashlib.sha256(rest).hexdigest().encode()
    path.write_bytes(head + b"\nrows-digest " + digest + b"\n" + rest)


@pytest.mark.parametrize("kind, key", [("deepcip", "items"), ("fism", "users"),
                                       ("fism", "items")])
def test_non_integer_id_raises_format_error(tmp_path, corpus, kind, key):
    path, _ = _saved(tmp_path, corpus, kind)
    _edit_id_line(path, key, lambda ids: ids[:1] + [ids[1] + "x"] + ids[2:])
    with pytest.raises(FormatError, match=f"non-integer id in the {key} line"):
        load_model(path)


@pytest.mark.parametrize("kind", sorted(_TRAIN))
def test_every_byte_edit_of_the_text_raises_format_error_or_loads(tmp_path, corpus,
                                                                  kind):
    path, _ = _saved(tmp_path, corpus, kind)
    data = path.read_bytes()
    binary = data.find(b"\nbinary\n")
    if binary < 0:                      # no factors: the whole file is text
        text, ids = len(data), range(0)
    else:
        text = binary + len(b"\nbinary\n")
        # the id lines: from the line after the rows digest to the binary line
        ids = range(data.index(b"\n", data.index(b"\nrows-digest ") + 1) + 1, binary + 1)
    for at in range(text):
        for byte in b"0-9 x":
            if data[at] == byte:
                continue
            path.write_bytes(data[:at] + bytes([byte]) + data[at + 1:])
            try:
                load_model(path)
            except FormatError:
                continue
            assert at not in ids, f"{kind}: {bytes([byte])!r} at byte {at} of " \
                f"line {data[:at].count(10)} loaded"


def test_deepcip_item_missing_from_the_events_raises_format_error(tmp_path, corpus):
    path, _ = _saved(tmp_path, corpus, "deepcip")
    # raw item ids of the corpus are 7k + 2, so 1 is in no event
    _edit_id_line(path, "items", lambda ids: ids[:1] + ["1"] + ids[2:])
    with pytest.raises(FormatError, match=r"items \[1\] are not in the events file"):
        load_model(path)


def test_any_param_in_a_popularity_file_raises_format_error(tmp_path, corpus):
    path, _ = _saved(tmp_path, corpus, "popularity")
    assert len(path.read_text().splitlines()) == 3      # no params
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("k 10\n")
    with pytest.raises(FormatError, match="expected one"):
        load_model(path)


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
    log = EventLog(users, items, ts, store.user_ids, store.item_ids)
    events_path = tmp_path / "events.ciprec"
    dump_events(log, events_path)
    path = tmp_path / f"model.{kind}"
    save_model(model, path, events_path)
    loaded = load_model(path)
    assert len(loaded.profiles) == store.num_users
    assert _recommendations(loaded, 10) == _recommendations(model, 10)


def test_observed_new_user_keeps_its_own_raw_id(tmp_path):
    log = parse_lines(["5\t10\t3\t100", "2\t20\t3\t200"], "ml-tab")
    model = PopularityModel(build_profiles(log))
    model.observe({2: [(0, 300)]})              # dense user 2: new
    store = model.profiles
    assert len(set(store.user_ids)) == store.num_users == 3
    users = np.array([0, 1, 2])
    full = EventLog(users, np.array([0, 1, 0]), np.array([100, 200, 300]),
                    store.user_ids, store.item_ids)
    events_path = tmp_path / "events.ciprec"
    dump_events(full, events_path)
    save_model(model, tmp_path / "model.pop", events_path)
    assert len(load_model(tmp_path / "model.pop").profiles) == 3


def test_saving_with_another_models_events_file_raises_format_error(tmp_path, corpus):
    log, store, events_path, tmp = corpus
    fewer = tmp_path / "fewer.ciprec"
    fewer.write_text("".join(events_path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(FormatError, match="not the model's events file"):
        save_model(CipIModel.train(store, 60, 10), tmp_path / "m.cipi", fewer)
    # a log that repeats an event still matches the profiles built from it
    u, i, t = events_path.read_text().splitlines()[-1].split(",")
    repeated = tmp_path / "repeated.ciprec"
    repeated.write_text(events_path.read_text() + f"{u},{i},{int(t) + 1}\n")
    save_model(CipIModel.train(store, 60, 10), tmp_path / "m.cipi", repeated)
    assert load_model(tmp_path / "m.cipi").score == CipIModel.train(store, 60, 10).score


def test_failed_save_leaves_the_previous_file(tmp_path, corpus, monkeypatch):
    log, store, events_path, tmp = corpus
    path = tmp_path / "m.cipi"
    save_model(CipIModel.train(store, 60, 10), path, events_path)
    before = path.read_bytes()

    def crash(model, out, head):
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("CIPREC1 cip-i\n")
        raise RuntimeError("disk full")

    monkeypatch.setattr(persistence, "_write", crash)
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
    # a user id table missing the last users fails while writing the rows
    broken = EventLog(log.users, log.items, log.ts,
                      log.user_ids[:len(log.user_ids) // 2], log.item_ids)
    with pytest.raises(IndexError):
        dump_events(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ev.ciprec"]
