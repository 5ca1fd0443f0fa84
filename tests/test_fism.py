"""Factored item-similarity scoring over pack-structured profiles."""

import numpy as np
import pytest

from ciprec.fism import FismModel
from ciprec.ingest import ProfileStore

from helpers import store_from


def _unit_model(n_users=2, n_items=5, alpha=0.5):
    # p_j . q_i = 1 for every pair, biases zero
    val = np.sqrt(0.5)
    return FismModel(p=np.full((n_items, 2), val), q=np.full((n_items, 2), val),
                     b_user=np.zeros(n_users), b_item=np.zeros(n_items),
                     alpha=alpha)


def _consumed_store(items, user=0, n_users=2, n_items=5):
    store = ProfileStore(n_users, n_items)
    for k, i in enumerate(items):
        store.add_event(user, i, 100 + k)
    return store


def test_score_frozen_worked_example():
    # hand-derived: |C| = 4, alpha = 0.5, every p.q = 1 -> 4^{-1/2} * 4 = 2
    m = _unit_model()
    store = _consumed_store([0, 1, 2, 3])
    m.profiles = store
    cips = store.get(0).partition(60)
    assert abs(m.score(cips, 0, 4) - 2.0) < 1e-12


def test_score_sums_across_packs_like_flat_profile():
    rng = np.random.default_rng(5)
    done = 0
    while done < 200:
        n_items = 12
        m = FismModel.random_init(3, n_items, 4, alpha=float(rng.uniform(0, 1)),
                                  seed=done)
        items = [int(x) for x in rng.permutation(n_items)[: int(rng.integers(1, 9))]]
        target = int(rng.integers(n_items))
        if target in items:
            continue
        cips = []
        idx = 0
        while idx < len(items):
            step = int(rng.integers(1, len(items) - idx + 1))
            cips.append(np.asarray(items[idx:idx + step]))
            idx += step
        flat = [np.asarray(items)]
        assert abs(m.score(cips, 1, target) - m.score(flat, 1, target)) < 1e-12
        done += 1


def test_score_empty_profile_is_bias_only():
    m = _unit_model()
    m.b_user = np.array([0.25, -0.5])
    m.b_item = np.arange(5, dtype=float) / 10
    assert m.score([], 1, 4) == -0.5 + 0.4


def test_score_validation():
    m = _unit_model()
    store = _consumed_store([0, 1])
    m.profiles = store
    cips = store.get(0).partition(60)
    with pytest.raises(ValueError):
        m.score(cips, 0, 0)         # already consumed
    with pytest.raises(ValueError):
        m.score(cips, 9, 2)         # unknown user
    with pytest.raises(ValueError):
        m.score(cips, 0, 99)        # unknown item


def test_constructor_validation():
    with pytest.raises(ValueError):
        FismModel(p=np.zeros((3, 2)), q=np.zeros((4, 2)),
                  b_user=np.zeros(1), b_item=np.zeros(3), alpha=0.5)
    with pytest.raises(ValueError):
        FismModel(p=np.zeros((3, 2)), q=np.zeros((3, 2)),
                  b_user=np.zeros(1), b_item=np.zeros(4), alpha=0.5)
    with pytest.raises(ValueError, match="delta"):
        FismModel(p=np.zeros((3, 2)), q=np.zeros((3, 2)),
                  b_user=np.zeros(1), b_item=np.zeros(3), alpha=0.5, delta=-1)


def test_random_init_is_seeded_and_small():
    a = FismModel.random_init(3, 7, 4, seed=11)
    b = FismModel.random_init(3, 7, 4, seed=11)
    assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)
    assert np.all(a.b_user == 0.0) and np.all(a.b_item == 0.0)
    assert np.abs(a.p).max() < 0.1  # sigma 0.01 factors stay tiny
    c = FismModel.random_init(3, 7, 4, seed=12)
    assert not np.array_equal(a.p, c.p)


def test_recommend_matches_score_ranking():
    rng = np.random.default_rng(8)
    for trial in range(25):
        n_items = 10
        m = FismModel.random_init(2, n_items, 3, seed=100 + trial)
        m.b_item = rng.normal(0, 0.1, n_items)
        items = [int(x) for x in rng.permutation(n_items)[:4]]
        cips = [np.asarray(items)]
        m.profiles = _consumed_store(items, n_items=n_items)
        recs = m.recommend(0, 3)
        unconsumed = [i for i in range(n_items) if i not in items]
        want = sorted(unconsumed,
                      key=lambda i: (-m.score(cips, 0, i), i))[:3]
        assert recs == want


def test_recommend_paths():
    m = _unit_model()
    m.profiles = _consumed_store([0, 1, 2, 3])
    # profile user: only item 4 remains
    assert m.recommend(0, 3) == [4]
    # known user with empty profile ranks by bias (all zero -> by item id)
    assert m.recommend(1, 3) == [0, 1, 2]
    # out-of-range user falls back to popularity
    assert m.recommend(50, 2) == m.profiles.popular_ranking()[:2]
    with pytest.raises(ValueError):
        m.recommend(0, 0)


def test_recommend_after_observe_skips_items_without_factors():
    # trained on 2 users x 3 items; the batch brings item 3 to user 0
    store = store_from([(0, 0, 10), (1, 1, 20), (1, 2, 30)])
    m = FismModel.train(store, 60, 4, alpha=0.5, seed=4)
    m.b_item = np.array([0.0, 0.3, -0.2])
    m.observe({0: [(3, 40)], 1: [(3, 50)]})
    for u, owned in ((0, [0, 3]), (1, [1, 2, 3])):
        # item 3 adds nothing to the sum but still counts in |C|
        known = [i for i in owned if i < 3]
        vec = m.p[known].sum(axis=0) * len(owned) ** -0.5
        scores = m.b_user[u] + m.b_item + m.q @ vec
        want = sorted((i for i in range(3) if i not in owned),
                      key=lambda i: (-scores[i], i))
        assert m.recommend(u, 5) == want
    assert 3 not in m.recommend(0, 5)


def test_recommend_for_a_user_first_seen_in_a_batch_excludes_their_items():
    store = store_from([(0, 0, 10), (0, 1, 20), (1, 1, 30), (1, 2, 40)])
    m = FismModel.train(store, 60, 4, seed=4)
    m.observe({2: [(1, 50), (3, 60)]})
    assert m.recommend(2, 5) == m.profiles.popular(5, exclude={1, 3}) == [0, 2]


def test_params_reports_hyperparameters():
    m = FismModel.random_init(2, 5, 3, alpha=0.7, seed=1)
    assert m.params["alpha"] == 0.7 and m.params["k"] == 3
