"""Synthetic corpora: shape constraints and planted structure."""

import numpy as np

from ciprec import synthetic


def test_small_corpus_constraints():
    ev = synthetic.generate_events(seed=2, n_users=40, n_items=120,
                                   n_events=3000, n_genres=6)
    assert len(ev) == 3000
    users = {}
    items = set()
    pairs = set()
    for u, i, r, t in ev:
        assert 1 <= u <= 40 and 1 <= i <= 120 and 1 <= r <= 5
        users[u] = users.get(u, 0) + 1
        items.add(i)
        assert (u, i) not in pairs      # a user never repeats an item
        pairs.add((u, i))
    assert len(users) == 40 and min(users.values()) >= 20
    assert len(items) == 120            # full catalog coverage
    ts = [e[3] for e in ev]
    assert ts == sorted(ts)


def test_generation_is_seeded():
    a = synthetic.generate_events(seed=5, n_users=20, n_items=60,
                                  n_events=900, n_genres=4)
    b = synthetic.generate_events(seed=5, n_users=20, n_items=60,
                                  n_events=900, n_genres=4)
    assert a == b
    c = synthetic.generate_events(seed=6, n_users=20, n_items=60,
                                  n_events=900, n_genres=4)
    assert a != c


def test_step_draws_equal_weighted_choice_on_the_same_stream():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    got = [synthetic._step(a) for _ in range(5000)]
    want = [int(b.choice(3, p=synthetic._STEP_P)) for _ in range(5000)]
    assert got == want
    assert a.random() == b.random()     # both consumed the same draws


def test_write_ml_tab(tmp_path):
    from ciprec.ingest import parse_events
    ev = synthetic.generate_events(seed=3, n_users=10, n_items=40,
                                   n_events=300, n_genres=4)
    path = tmp_path / "u.data"
    synthetic.write_ml_tab(path, ev)
    log = parse_events(path, "ml-tab")
    assert len(log) == 300
    assert log.num_users == 10 and log.num_items == 40


def test_sessions_form_packs():
    # within-session gaps stay below 60s, between-session gaps far above
    from ciprec.ingest import parse_events, build_profiles
    ev = synthetic.generate_events(seed=4, n_users=15, n_items=80,
                                   n_events=600, n_genres=4)
    lines = [f"{u}\t{i}\t{r}\t{t}" for u, i, r, t in ev]
    store = build_profiles(parse_events(lines, "ml-tab"))
    packs = [len(c) for u in store.profiles
             for c in store.get(u).partition(60)]
    assert np.mean(packs) > 2.0         # sessions survive as multi-item packs


def test_planted_clusters_are_disjoint():
    packs, ga, gb = synthetic.planted_clusters(n_items=20, n_packs=100, seed=1)
    assert len(packs) == 100
    assert set(ga) | set(gb) == set(range(20))
    sa, sb = set(ga), set(gb)
    for pack in packs:
        assert len(set(pack)) == len(pack)
        inside = set(pack)
        assert inside <= sa or inside <= sb
    # both groups appear
    assert any(set(p) <= sa for p in packs)
    assert any(set(p) <= sb for p in packs)
