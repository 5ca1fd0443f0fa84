"""One update protocol: every model kind folds new events in through
``observe(batches)`` and falls back to the shared popularity ranking."""

import numpy as np
import pytest

from ciprec import config
from ciprec.cli import _build_model

from helpers import batches_from, random_stream, store_from

CFG = config.resolve(None, None, dict(delta_h=3, delta=60, k_users=5,
                                      k_items=5, dim=8, epochs=2, seed=3))


def _events():
    """A 12-user / 30-item stream, split into a training head and a
    tail that adds a new user (12) and a new item (30)."""
    events = random_stream(np.random.default_rng(5), 12, 30, 300)
    head, tail = events[:240], events[240:]
    t = tail[-1][2]
    tail += [(12, 30, t + 1), (12, 3, t + 2), (4, 30, t + 3)]
    return head, tail


def _snapshot(store):
    return (store.num_users, store.num_items,
            {u: (list(p.items), list(p.ts)) for u, p in store.profiles.items()})


@pytest.mark.parametrize("kind", config.MODEL_KINDS)
def test_observe_matches_a_store_built_from_all_events(kind):
    head, tail = _events()
    model = _build_model(kind, store_from(head), CFG)
    unknown = 99
    n = 40   # more than the catalog: the whole ranking
    assert 30 not in model.recommend(unknown, n)   # fills the ranking cache
    model.observe(batches_from(tail))
    full = store_from(head + tail)
    assert _snapshot(model.profiles) == _snapshot(full)
    assert model.recommend(unknown, n) == model.profiles.popular_ranking()[:n]
    # the cached ranking follows the batch: the new item now ranks
    assert model.profiles.popular_ranking() == full.popular_ranking()
    assert 30 in model.recommend(unknown, n)


@pytest.mark.parametrize("kind", config.MODEL_KINDS)
def test_rejected_batch_leaves_profiles_unchanged(kind):
    head, _ = _events()
    model = _build_model(kind, store_from(head), CFG)
    before = _snapshot(model.profiles)
    last = max(t for _, _, t in head)
    late_user = max(u for u, _, _ in head)
    prof = model.profiles.get(late_user)
    fresh = next(i for i in range(30) if i not in prof.items)
    batch = {0: [(30, last + 10)], 12: [(5, last + 10)],
             late_user: [(31, last + 20), (fresh, last + 5)]}
    with pytest.raises(ValueError):
        model.observe(batch)
    assert _snapshot(model.profiles) == before


@pytest.mark.parametrize("kind", config.MODEL_KINDS)
def test_batch_users_get_lists_without_their_own_items(kind):
    # the tail brings a new user (12) and gives user 4 a new item (30)
    head, tail = _events()
    model = _build_model(kind, store_from(head), CFG)
    model.observe(batches_from(tail))
    for u in sorted({u for u, _, _ in tail}):
        recs = model.recommend(u, 10)
        owned = model.profiles.get(u).pos
        assert len(set(recs)) == len(recs) <= 10
        assert not any(i in owned for i in recs)


@pytest.mark.parametrize("kind", config.MODEL_KINDS)
def test_recommend_refuses_a_non_positive_n_for_every_user(kind):
    head, tail = _events()
    model = _build_model(kind, store_from(head), CFG)
    model.observe(batches_from(tail))
    # a trained user, a user first seen in the batch (no fism bias row)
    # and a user with no profile
    for u in (0, 12, 99):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be positive"):
                model.recommend(u, n)
