"""Command-line frontend: each subcommand end to end, plus exit codes."""

import json
import os

import numpy as np
import pytest

from ciprec import config, persistence, synthetic
from ciprec.analysis import precision_at_n
from ciprec.cli import _build_model, _events_from_profiles, _remap_batches, main
from ciprec.ingest import EventLog, ProfileStore, build_profiles, temporal_split
from ciprec.persistence import load_events, load_model, peek_kind

from helpers import fold_every


@pytest.fixture(scope="module")
def raw_log(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    path = tmp / "raw.tsv"
    ev = synthetic.generate_events(seed=2, n_users=40, n_items=120,
                                   n_events=3000, n_genres=6)
    synthetic.write_ml_tab(path, ev)
    return tmp, path


@pytest.fixture(scope="module")
def events_file(raw_log):
    tmp, path = raw_log
    out = tmp / "ev.ciprec"
    assert main(["ingest", "--path", str(path), "--format", "ml-tab",
                 "--out", str(out)]) == 0
    return out


SPLIT = ["--split", "2000,500,500"]


def test_ingest_produces_canonical_events(events_file):
    assert peek_kind(events_file) == "events"
    assert len(load_events(events_file)) == 3000


def test_train_and_recommend(events_file, tmp_path, capsys):
    out = tmp_path / "m.cipi"
    assert main(["train", "--model", "cip-i", "--events", str(events_file),
                 *SPLIT, "--delta", "60", "--k", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["recommend", "--model-file", str(out), "--user", "5",
                 "--top", "8"]) == 0
    printed = capsys.readouterr().out.split()
    assert len(printed) == 8
    model = load_model(out)
    raw_user_ids = model.profiles.user_ids
    dense = raw_user_ids.index(5)
    want = [model.profiles.item_ids[i] for i in model.recommend(dense, 8)]
    assert [int(x) for x in printed] == want


def test_update_extends_a_saved_model(events_file, tmp_path, capsys):
    out = tmp_path / "m.cipi"
    main(["train", "--model", "cip-i", "--events", str(events_file),
          *SPLIT, "--out", str(out)])
    before = load_model(out)
    n_before = sum(len(before.profiles.get(u).items)
                   for u in before.profiles.profiles)
    assert main(["update", "--model-file", str(out),
                 "--events", str(events_file)]) == 0
    after = load_model(out)
    n_after = sum(len(after.profiles.get(u).items)
                  for u in after.profiles.profiles)
    assert n_after > n_before       # the held-out tail got folded in
    # the grown log went to the other events name and the old one is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.cipi", "m.cipi.events.1"]
    main(["update", "--model-file", str(out), "--events", str(events_file)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.cipi", "m.cipi.events"]


def test_failed_update_leaves_the_previous_model_loadable(events_file, tmp_path,
                                                          monkeypatch, capsys):
    out = tmp_path / "m.cipi"
    main(["train", "--model", "cip-i", "--events", str(events_file),
          *SPLIT, "--out", str(out)])
    before = load_model(out)

    def crash(model, path, head):
        raise OSError("disk full")

    monkeypatch.setattr(persistence, "_write", crash)
    assert main(["update", "--model-file", str(out), "--events", str(events_file)]) != 0
    assert "disk full" in capsys.readouterr().err
    after = load_model(out)
    assert after.score == before.score
    assert after.profiles.user_ids == before.profiles.user_ids


def test_evaluate_writes_report(events_file, tmp_path):
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--model", "popularity", "--events",
                 str(events_file), *SPLIT, "--top", "10",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "model,n,params,hits,events,precision,runtime_s"
    row = lines[1].split(",")
    assert row[0] == "popularity" and row[1] == "10" and row[4] == "500"


def _replay_hits(events_file, batch_q: int) -> int:
    """Hits of a per-event replay of the test split that folds events
    into a default cip-i model every ``batch_q`` events."""
    train_log, _, test_log = temporal_split(load_events(events_file), 2000, 500, 500)
    model = _build_model("cip-i", build_profiles(train_log), config.RunConfig())
    return precision_at_n(model, test_log, 10, on_event=fold_every(model, batch_q)).hits


def _evaluate_replay(events_file, tmp_path, *extra) -> dict[str, str]:
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--model", "cip-i", "--events",
                 str(events_file), *SPLIT, "--top", "10", "--replay",
                 *extra, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def test_evaluate_replay_mode(events_file, tmp_path):
    # the default batch_q (1000) spans the whole 500-event test split
    row = _evaluate_replay(events_file, tmp_path)
    assert int(row["hits"]) == _replay_hits(events_file, 1000)
    hits = {}
    for batch_q in (3, 50):
        cfg = tmp_path / f"q{batch_q}.json"
        cfg.write_text(json.dumps({"batch_q": batch_q}))
        row = _evaluate_replay(events_file, tmp_path, "--config", str(cfg))
        hits[batch_q] = int(row["hits"])
        assert hits[batch_q] == _replay_hits(events_file, batch_q)
    assert hits[3] != hits[50]


@pytest.mark.parametrize("batch_q", [0, -4])
def test_evaluate_replay_rejects_a_window_below_one_event(events_file, tmp_path,
                                                          capsys, batch_q):
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps({"batch_q": batch_q}))
    capsys.readouterr()
    assert main(["evaluate", "--model", "popularity", "--events", str(events_file),
                 *SPLIT, "--replay", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "window" in err


def test_sweep_emits_one_row_per_grid_point(events_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "cip-i", "--events", str(events_file),
                 *SPLIT, "--grid", "k_items=5,10", "--grid", "delta=30,60",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4
    assert "k_items=5" in lines[1] and "delta=30" in lines[1]
    assert "k_items=10" in lines[4] and "delta=60" in lines[4]


def test_graph_exports(events_file, tmp_path, capsys):
    edges = tmp_path / "g.tsv"
    gml = tmp_path / "g.graphml"
    part = tmp_path / "part.csv"
    assert main(["graph", "--events", str(events_file), "--min-weight", "2",
                 "--out", str(edges), "--graphml", str(gml)]) == 0
    text = edges.read_text().splitlines()
    assert len(text) > 0 and all(len(l.split("\t")) == 3 for l in text)
    assert gml.exists()
    # score a trivial partition over the first edge's endpoints
    nodes = sorted({int(x) for l in text for x in l.split("\t")[:2]})
    part.write_text("node,community\n" +
                    "\n".join(f"{v},0" for v in nodes) + "\n")
    capsys.readouterr()
    assert main(["graph", "--events", str(events_file), "--min-weight", "2",
                 "--out", str(edges), "--partition", str(part)]) == 0
    assert "modularity" in capsys.readouterr().out


def test_dump_model_summary(events_file, tmp_path, capsys):
    out = tmp_path / "m.pop"
    main(["train", "--model", "popularity", "--events", str(events_file),
          *SPLIT, "--out", str(out)])
    capsys.readouterr()
    assert main(["dump-model", "--model-file", str(out)]) == 0
    text = capsys.readouterr().out
    assert "kind: popularity" in text


def test_config_file_and_flag_precedence(events_file, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"delta_minutes": 2, "k_items": 5}))
    out = tmp_path / "m.cipi"
    assert main(["train", "--model", "cip-i", "--events", str(events_file),
                 *SPLIT, "--config", str(cfg), "--out", str(out)]) == 0
    model = load_model(out)
    assert model.params == {"delta": 120, "k": 5}   # file values applied
    assert main(["train", "--model", "cip-i", "--events", str(events_file),
                 *SPLIT, "--config", str(cfg), "--delta", "90",
                 "--out", str(out)]) == 0
    assert load_model(out).params["delta"] == 90    # flag beats file


def test_deepcip_and_fism_and_cipu_train_paths(events_file, tmp_path, capsys):
    for model, extra in (("deepcip", ["--dim", "16", "--epochs", "1"]),
                         ("fism", ["--dim", "8"]),
                         ("cip-u", ["--dh", "10", "--k", "10"])):
        out = tmp_path / f"m.{model}"
        assert main(["train", "--model", model, "--events", str(events_file),
                     *SPLIT, *extra, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["recommend", "--model-file", str(out), "--user", "3",
                     "--top", "5"]) == 0
        assert len(capsys.readouterr().out.split()) == 5


def test_update_brings_a_new_user_and_item_to_a_fism_model(raw_log, events_file,
                                                          tmp_path, capsys):
    _, raw = raw_log
    out = tmp_path / "m.fism"
    assert main(["train", "--model", "fism", "--events", str(events_file),
                 *SPLIT, "--dim", "8", "--out", str(out)]) == 0
    last = max(int(line.split("\t")[3]) for line in open(raw))
    new_raw = tmp_path / "new.tsv"
    new_raw.write_text(f"1\t99999\t5\t{last + 10}\n"      # known user, new item
                       f"77777\t1\t5\t{last + 20}\n"      # new user
                       f"77777\t99999\t5\t{last + 30}\n")
    new_events = tmp_path / "new.ciprec"
    assert main(["ingest", "--path", str(new_raw), "--format", "ml-tab",
                 "--out", str(new_events)]) == 0
    assert main(["update", "--model-file", str(out),
                 "--events", str(new_events)]) == 0
    store = load_model(out).profiles
    for user in (1, 77777):
        prof = store.get(store.user_ids.index(user))
        owned = {store.item_ids[i] for i in prof.items}
        assert 99999 in owned
        capsys.readouterr()
        assert main(["recommend", "--model-file", str(out), "--user", str(user),
                     "--top", "5"]) == 0
        printed = [int(x) for x in capsys.readouterr().out.split()]
        assert len(printed) == 5 and not owned & set(printed)


def test_thread_cap_env(events_file, tmp_path, monkeypatch):
    from ciprec import cli

    class Args:
        config = None
        dataset = None

    monkeypatch.setenv("CIPREC_THREADS", "2")
    args = Args()
    for k in ("delta_h", "delta", "delta_minutes", "k", "window", "top_n",
              "dim", "negatives", "lr", "epochs", "seed", "alpha", "model"):
        setattr(args, k, None)
    args.workers = 8
    cfg = cli._resolve(args)
    assert cfg.workers == 2


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2                      # argparse usage error
    assert main(["recommend", "--model-file", str(tmp_path / "nope"),
                 "--user", "1"]) == 1               # runtime error
    capsys.readouterr()


def test_dataset_flag_supplies_defaults(raw_log, tmp_path):
    # ml-100k defaults demand a 100k-event corpus; here we check only that
    # the format default kicks in by pointing ingest at the raw file
    tmp, path = raw_log
    out = tmp_path / "ev2.ciprec"
    assert main(["ingest", "--dataset", "ml-100k", "--path", str(path),
                 "--out", str(out)]) == 0
    assert len(load_events(out)) == 3000


def test_events_from_profiles_order_ties_by_user_then_position():
    rng = np.random.default_rng(17)
    for _ in range(100):
        store = ProfileStore(0, 0)
        t = 0
        for _ in range(int(rng.integers(0, 60))):
            t += int(rng.integers(0, 3))                  # gaps of 0 tie
            store.add_event(int(rng.integers(6)), int(rng.integers(12)), t)
        log = _events_from_profiles(store)
        want = sorted((t, u, p, i) for u, prof in store.profiles.items()
                      for p, (i, t) in enumerate(zip(prof.items, prof.ts)))
        assert (list(zip(log.ts.tolist(), log.users.tolist(), log.items.tolist()))
                == [(t, u, i) for t, u, _, i in want])
        assert ({u: (p.items, p.ts) for u, p in build_profiles(log).profiles.items()}
                == {u: (p.items, p.ts) for u, p in store.profiles.items()})


def test_remap_batches_keeps_store_ids_and_numbers_new_ids_by_first_event():
    store = ProfileStore(2, 3, user_ids=[10, 20], item_ids=[100, 200, 300])
    # dense ids in file order (55, 20, 99 / 400, 300, 500) differ from the
    # order of first events: 99, 20, 55 / 500, 400, 300
    log = EventLog(users=[2, 1, 0, 2], items=[2, 0, 1, 0], ts=[5, 6, 7, 8],
                   user_ids=[55, 20, 99], item_ids=[400, 300, 500])
    batches = _remap_batches(log, store)
    assert store.user_ids == [10, 20, 99, 55]
    assert store.item_ids == [100, 200, 300, 500, 400]
    assert (store.num_users, store.num_items) == (4, 5)
    assert batches == {2: [(3, 5), (4, 8)], 1: [(4, 6)], 3: [(2, 7)]}
    assert list(batches) == [2, 1, 3]
