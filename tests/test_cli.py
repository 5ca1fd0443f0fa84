"""Command-line frontend: each subcommand end to end, plus exit codes."""

import json
import os

import numpy as np
import pytest

from ciprec import persistence, synthetic
from ciprec.cli import _events_from_profiles, main
from ciprec.ingest import ProfileStore, build_profiles
from ciprec.persistence import load_events, load_model, peek_kind


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


def test_evaluate_replay_mode(events_file, tmp_path):
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--model", "cip-i", "--events",
                 str(events_file), *SPLIT, "--top", "10", "--replay",
                 "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 2


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
