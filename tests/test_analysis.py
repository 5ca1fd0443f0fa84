"""Item graph, modularity, replay evaluation, parameter sweeps."""

import copy
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ciprec import analysis, config
from ciprec.analysis import (EvalReport, ItemGraph, build_item_graph,
                             export_edge_list, export_graphml, load_partition,
                             modularity, precision_at_n, sweep, write_reports)
from ciprec.cli import _build_model
from ciprec.ingest import EventLog, ProfileStore, build_profiles, parse_events
from ciprec.synthetic import generate_events

from helpers import fold_every, random_stream, store_from


def _graph(edges) -> ItemGraph:
    g = ItemGraph()
    for a, b, w in edges:
        g.edges[(min(a, b), max(a, b))] = float(w)
    return g


def _brute_modularity(g: ItemGraph, part) -> float:
    nodes = sorted(g.nodes)
    w_total = sum(g.edges.values())
    deg = {v: 0.0 for v in nodes}
    for (a, b), w in g.edges.items():
        deg[a] += w
        deg[b] += w
    q = 0.0
    for a in nodes:
        for b in nodes:
            if part[a] != part[b]:
                continue
            adj = 0.0 if a == b else g.edges.get((min(a, b), max(a, b)), 0.0)
            q += (adj - deg[a] * deg[b] / (2.0 * w_total)) / (2.0 * w_total)
    return q


def test_two_equal_cliques_score_exactly_half():
    g = _graph([(0, 1, 1), (0, 2, 1), (1, 2, 1),
                (3, 4, 1), (3, 5, 1), (4, 5, 1)])
    assert modularity(g, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}) == 0.5


def test_modularity_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(4, 10))
        g = ItemGraph()
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.5:
                    g.edges[(a, b)] = float(rng.integers(1, 5))
        if not g.edges:
            continue
        part = {v: int(rng.integers(3)) for v in range(n)}
        assert abs(modularity(g, part) - _brute_modularity(g, part)) < 1e-12


def test_modularity_single_community_is_zero():
    g = _graph([(0, 1, 2), (1, 2, 3)])
    assert abs(modularity(g, {0: 0, 1: 0, 2: 0})) < 1e-15


def test_modularity_validation():
    with pytest.raises(ValueError):
        modularity(ItemGraph(), {})
    g = _graph([(0, 1, 1)])
    with pytest.raises(ValueError):
        modularity(g, {0: 0})       # node 1 has no community


def test_item_graph_window():
    # one profile [0, 1, 2, 3]: every pair is within 2 back / 3 forward
    store = store_from([(0, i, 100 + i) for i in range(4)])
    g = build_item_graph(store, hop_back=2, hop_fwd=3, min_weight=1)
    assert set(g.edges) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    assert all(w == 1.0 for w in g.edges.values())


def test_item_graph_narrow_window():
    store = store_from([(0, i, 100 + i) for i in range(4)])
    g = build_item_graph(store, hop_back=0, hop_fwd=1, min_weight=1)
    assert set(g.edges) == {(0, 1), (1, 2), (2, 3)}


def test_item_graph_counts_each_user_once():
    events = [(0, 0, 10), (0, 1, 11), (1, 0, 10), (1, 1, 11)]
    # user 2 visits the pair twice through overlapping windows
    events += [(2, 0, 10), (2, 1, 11), (2, 2, 12), (2, 0, 13)]
    store = store_from(events)   # note: duplicate consumption is dropped
    g = build_item_graph(store, 2, 3, 1)
    assert g.edges[(0, 1)] == 3.0


def _loop_item_graph(store, hop_back, hop_fwd, min_weight):
    """Reference: for every profile position, pair the items at offsets
    -hop_back..hop_fwd, one set of pairs per user."""
    counts: dict[tuple[int, int], int] = {}
    for profile in store:
        items = profile.items
        length = len(items)
        mine = set()
        for t in range(length):
            a = items[t]
            for off in range(-hop_back, hop_fwd + 1):
                s = t + off
                if off == 0 or s < 0 or s >= length:
                    continue
                b = items[s]
                mine.add((a, b) if a < b else (b, a))
        for pair in mine:
            counts[pair] = counts.get(pair, 0) + 1
    edges = {pair: float(w) for pair, w in counts.items() if w >= min_weight}
    return ItemGraph(edges)


def test_item_graph_matches_the_triple_loop():
    from ciprec.synthetic import generate_events

    rows = generate_events(seed=3, n_users=60, n_items=150, n_events=4000,
                           n_genres=6)
    store = store_from((u, i, t) for u, i, _, t in rows)
    for hops in ((0, 0), (0, 1), (2, 3), (3, 0)):
        for min_weight in (1, 3):
            want = _loop_item_graph(store, *hops, min_weight)
            assert build_item_graph(store, *hops, min_weight).edges == want.edges


@pytest.mark.parametrize("block", [1, 3, 50])
def test_item_graph_is_the_same_across_profile_blocks(monkeypatch, block):
    rng = np.random.default_rng(block)
    store = store_from(random_stream(rng, 40, 30, 800))
    want = _loop_item_graph(store, 2, 3, 2).edges
    monkeypatch.setattr(analysis, "_GRAPH_BLOCK", block)
    got = build_item_graph(store, 2, 3, 2).edges
    assert got == want and list(got) == sorted(want)       # in (i, j) order
    assert build_item_graph(ProfileStore(0, 0)).edges == {}


def test_item_graph_min_weight_boundary():
    events = []
    for u in range(4):
        events += [(u, 0, 10), (u, 1, 11)]
    store = store_from(events)
    assert (0, 1) in build_item_graph(store, 2, 3, min_weight=4).edges
    assert (0, 1) not in build_item_graph(store, 2, 3, min_weight=5).edges


def test_edge_list_round_trip(tmp_path):
    g = _graph([(0, 1, 3), (1, 2, 2.5)])
    path = tmp_path / "g.tsv"
    export_edge_list(g, path)
    text = path.read_text()
    assert "0\t1\t3\n" in text          # integral weights stay integral
    assert "1\t2\t2.5\n" in text
    rows = [line.split("\t") for line in text.splitlines()]
    assert {(int(i), int(j)): float(w) for i, j, w in rows} == g.edges


def test_graphml_export(tmp_path):
    g = _graph([(0, 1, 3), (1, 2, 2.5)])
    path = tmp_path / "g.graphml"
    export_graphml(g, path)
    root = ET.parse(path).getroot()
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    nodes = root.findall(".//g:node", ns)
    edges = root.findall(".//g:edge", ns)
    assert len(nodes) == 3 and len(edges) == 2


def test_load_partition(tmp_path):
    p = tmp_path / "part.csv"
    p.write_text("node,community\n0,0\n1,0\n2,1\n")
    assert load_partition(p) == {0: 0, 1: 0, 2: 1}
    p2 = tmp_path / "bare.csv"
    p2.write_text("5,2\n6,3\n")
    assert load_partition(p2) == {5: 2, 6: 3}


class _FixedRecommender:
    kind = "fixed"
    params = {"note": 1}

    def __init__(self, items):
        self.items = items
        self.calls = 0
        self.observed = []

    def recommend(self, u, n):
        self.calls += 1
        return self.items[:n]

    def observe(self, batches):
        self.observed.append(batches)


def _log(pairs):
    users = np.array([u for u, _ in pairs])
    items = np.array([i for _, i in pairs])
    ts = np.arange(1, len(pairs) + 1)
    n_u = int(users.max()) + 1 if len(users) else 0
    n_i = int(items.max()) + 1 if len(items) else 0
    return EventLog(users, items, ts, list(range(n_u)), list(range(n_i)))


def test_precision_oracle_fixed_list():
    # hand-derived: two hits over 4 events at n = 3 -> 2 / 12
    rec = _FixedRecommender([0, 1, 2])
    rep = precision_at_n(rec, _log([(0, 0), (0, 3), (1, 1), (1, 4)]), 3)
    assert rep.hits == 2 and rep.events == 4
    assert abs(rep.precision - 2.0 / 12.0) < 1e-15


def test_precision_caches_frozen_recommendations_per_user():
    rec = _FixedRecommender([0])
    precision_at_n(rec, _log([(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]), 1)
    assert rec.calls == 2           # one call per distinct user


def test_precision_replay_recomputes_every_event():
    rec = _FixedRecommender([0])
    seen = []
    rep = precision_at_n(rec, _log([(0, 0), (0, 1), (1, 0)]), 1,
                         on_event=lambda u, i, t: seen.append((u, i, t)))
    assert rec.calls == 3
    assert seen == [(0, 0, 1), (0, 1, 2), (1, 0, 3)]
    assert rep.hits == 2


def test_precision_validation():
    rec = _FixedRecommender([0])
    with pytest.raises(ValueError):
        precision_at_n(rec, _log([(0, 0)]), 0)
    with pytest.raises(ValueError):
        precision_at_n(rec, _log([]), 3)


@pytest.mark.parametrize("every", [0, -3])
def test_precision_rejects_a_window_below_one_event(every):
    rec = _FixedRecommender([0])
    with pytest.raises(ValueError, match="window"):
        precision_at_n(rec, _log([(0, 0), (1, 0)]), 1, every=every)
    assert rec.calls == 0 and rec.observed == []


def test_precision_windows_score_once_per_user_then_fold():
    rec = _FixedRecommender([0])
    rep = precision_at_n(rec, _log([(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]), 1,
                         every=2)
    assert rep.hits == 2 and rep.events == 5
    assert rec.calls == 4           # users {0}, {1, 0}, {1}
    assert rec.observed == [{0: [(0, 1), (1, 2)]},
                            {1: [(0, 3)], 0: [(2, 4)]},
                            {1: [(1, 5)]}]


_REPLAY_CFG = config.resolve(None, None, dict(delta_h=5, delta=60, k_users=10,
                                              k_items=10, dim=8, epochs=1, seed=2))


@pytest.fixture(scope="module")
def replay_corpus():
    """A 40-user / 120-item log, its 300-event test tail, and one
    trained model of each kind."""
    rows = generate_events(seed=4, n_users=40, n_items=120, n_events=1500, n_genres=4)
    log = parse_events((f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows), "ml-tab")
    train_log, test_log = log.slice(0, 1200), log.slice(1200, 1500)
    models = {kind: _build_model(kind, build_profiles(train_log), _REPLAY_CFG)
              for kind in config.MODEL_KINDS}
    return log, test_log, models


@pytest.mark.parametrize("every", [1, 7, 300])
@pytest.mark.parametrize("kind", config.MODEL_KINDS)
def test_windowed_replay_equals_the_per_event_reference(replay_corpus, kind, every):
    log, test_log, models = replay_corpus
    reference = copy.deepcopy(models[kind])
    want = precision_at_n(reference, test_log, 10, on_event=fold_every(reference, every))
    model = copy.deepcopy(models[kind])
    calls = []
    recommend = model.recommend
    model.recommend = lambda u, n: calls.append(u) or recommend(u, n)
    got = precision_at_n(model, test_log, 10, every=every)
    assert got.hits == want.hits
    users = test_log.users.tolist()
    assert calls == [u for lo in range(0, len(users), every)
                     for u in dict.fromkeys(users[lo:lo + every])]
    # the last window is folded too: the model holds the whole log
    assert ({u: (list(p.items), list(p.ts)) for u, p in model.profiles.profiles.items()}
            == {u: (list(p.items), list(p.ts)) for u, p in build_profiles(log).profiles.items()})


def test_report_row_and_csv():
    rep = EvalReport(model="cip-i", n=10, params={"k": 30, "delta": 60},
                     hits=5, events=100, precision=0.005, runtime_s=1.25)
    assert rep.to_row() == ["cip-i", "10", "delta=60;k=30", "5", "100",
                            "0.005", "1.250"]
    buf = io.StringIO()
    write_reports([rep], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "model,n,params,hits,events,precision,runtime_s"
    assert lines[1].startswith("cip-i,10,delta=60;k=30,5,100,")


def test_sweep_grid_is_a_deterministic_product():
    built = []

    def build(point):
        built.append(dict(point))
        return _FixedRecommender([0])

    grid = {"a": [1, 2], "b": [10, 20, 30]}
    reports = sweep(build, grid, _log([(0, 0), (0, 1)]), 1)
    assert len(reports) == 6
    assert built[0] == {"a": 1, "b": 10}
    assert built[1] == {"a": 1, "b": 20}
    assert built[-1] == {"a": 2, "b": 30}
    # the swept point lands in each report's params
    assert reports[0].params["a"] == 1 and reports[0].params["b"] == 10
    assert all(r.hits == 1 for r in reports)
