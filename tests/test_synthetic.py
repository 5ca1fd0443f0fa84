"""Synthetic corpora: shape constraints and planted structure."""

import hashlib

import numpy as np
import pytest

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


@pytest.mark.parametrize("kw, digest", [
    ({}, "ace0e8890afef0fd7f61c5379b72350f7492df4309cbe849bc75ec55bc07b0c6"),
    (dict(seed=3, n_users=60, n_items=150, n_events=4000),
     "d72672c3bf046c70e8959c719e4d9c3b784302907ddbc4a674f0aff2af7ff21c"),
    (dict(seed=5, n_users=60, n_items=150, n_events=4000),
     "577f5844cb33eb96bbc068c15cd872ee562341fddc081b82354c982562329f18"),
    (dict(seed=3, n_users=60, n_items=150, n_events=4000, n_genres=6),
     "bfbe6cc1c64f415d6eec7d7dc3bfe0681c56d49ebcb4fde759307d0e895c4662"),
    (dict(seed=5, n_users=60, n_items=150, n_events=4000, n_genres=6),
     "16f2599b468469aac26b946b9350cca9d0c5eec5622caead734dabec49496740"),
    (dict(seed=21, n_users=300, n_items=600, n_events=20_000),
     "ecb9134db1347c24084d58697494da9f432cb9fd395e0d2085b5c8b258ed853b"),
])
def test_generated_corpora_are_pinned(kw, digest):
    # the corpora every test and the bench build on: a faster generator
    # must give the same events, byte for byte
    got = hashlib.sha256(repr(synthetic.generate_events(**kw)).encode())
    assert got.hexdigest() == digest


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
    from ciprec.ingest import build_profiles
    from helpers import parse_lines
    ev = synthetic.generate_events(seed=4, n_users=15, n_items=80,
                                   n_events=600, n_genres=4)
    lines = [f"{u}\t{i}\t{r}\t{t}" for u, i, r, t in ev]
    store = build_profiles(parse_lines(lines, "ml-tab"))
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
