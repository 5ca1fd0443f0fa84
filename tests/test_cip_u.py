"""User-pair store: hammock pairs, similarity, incremental batches."""

import math
import tracemalloc

import numpy as np
import pytest

from ciprec import cip_u
from ciprec.cip_u import (CipUModel, UserPairState, hammock_distance,
                          hammock_pairs, pair_similarity)
from ciprec.ingest import ProfileStore, run_offsets
from ciprec.synthetic import generate_events

from helpers import batches_from, chunked_batches, random_stream, store_from


def _profile(user, items, t0=100):
    store = ProfileStore(0, 0)
    store.extend({user: [(i, t0 + k) for k, i in enumerate(items)]})
    return store.get(user)


def test_hammock_distance():
    p = _profile(0, [14, 3, 20, 99])
    assert hammock_distance(p, 14, 99) == 3
    assert hammock_distance(p, 20, 3) == 1
    with pytest.raises(ValueError):
        hammock_distance(p, 14, 7)


def test_hammock_pairs_worked_example():
    # hand-worked: positions of 20 and 53 differ by 2 in one profile and
    # by 1 in the other, so with threshold 2 they form the only pair
    p1 = _profile(0, [14, 3, 20, 99, 53, 10, 25])
    p2 = _profile(1, [20, 53, 4])
    assert hammock_pairs(p1, p2, 2) == {(20, 53)}
    # threshold 1 breaks the pair on the first profile's side
    assert hammock_pairs(p1, p2, 1) == set()


def test_hammock_pairs_need_both_sides_close():
    p1 = _profile(0, [1, 2, 9, 9, 3][0:3] + [3])   # [1, 2, 9, 3]
    p2 = _profile(1, [1, 5, 6, 7, 8, 3])
    # distance(1,3): 3 in p1 but 5 in p2 -> pair only when both within δH
    assert hammock_pairs(p1, p2, 4) == set()
    assert hammock_pairs(p1, p2, 5) == {(1, 3)}


def test_pair_similarity_frozen_values():
    # hand-derived: 1 - e^{-1}
    assert pair_similarity(1, False) == 0.6321205588285577
    assert pair_similarity(0, False) == 0.0
    assert pair_similarity(0, True) == 1.0
    assert pair_similarity(5, True) == 1.0
    # hand-derived: 1 - e^{-3}
    assert abs(pair_similarity(3, False) - (1.0 - math.exp(-3.0))) < 1e-15


def test_similarity_bounds_and_monotonicity():
    for hp in range(0, 60):
        s = pair_similarity(hp, False)
        assert 0.0 <= s <= 1.0
        if hp:
            assert s >= pair_similarity(hp - 1, False)
    # strictly below 1 while e^{-hp} is still representable next to 1.0
    for hp in range(0, 36):
        assert pair_similarity(hp, False) < 1.0


def test_train_matches_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(30):
        events = random_stream(rng, 8, 15, int(rng.integers(10, 60)))
        store = store_from(events)
        dh = int(rng.integers(0, 6))
        model = CipUModel.train(store, dh, 5)
        users = sorted(store.profiles)
        for a in range(len(users)):
            for b in range(a + 1, len(users)):
                u, v = users[a], users[b]
                want = len(hammock_pairs(store.get(u), store.get(v), dh))
                state = model.pair_state(u, v)
                assert state.hp_count == want
                assert state.similarity == pair_similarity(
                    want, store.get(u).items == store.get(v).items)


def test_incremental_chunks_equal_batch():
    rng = np.random.default_rng(4)
    for _ in range(25):
        events = random_stream(rng, 10, 20, int(rng.integers(20, 90)))
        store = store_from(events)
        batch = CipUModel.train(store, 3, 5)
        inc = CipUModel(3, 5)
        for chunk in chunked_batches(rng, events, 15):
            inc.observe(chunk)
        for u in store.profiles:
            for v in store.profiles:
                if u >= v:
                    continue
                assert batch.pair_state(u, v).hp_count == \
                    inc.pair_state(u, v).hp_count
        for u in store.profiles:
            assert inc.profiles.get(u).items == store.get(u).items


def test_reapplying_same_events_is_a_no_op():
    events = [(0, 1, 10), (0, 2, 20), (1, 1, 15), (1, 2, 30)]
    m = CipUModel(2, 5)
    m.observe(batches_from(events))
    users = sorted(m.profiles.profiles)

    def counts():
        return {(u, v): m.pair_state(u, v).hp_count for u in users for v in users}

    before = counts()
    m.observe(batches_from(events))
    assert counts() == before


def test_late_event_rejects_the_whole_batch():
    m = CipUModel(2, 5)
    m.observe({0: [(1, 100)], 1: [(1, 100), (2, 110), (4, 120)]})
    with pytest.raises(ValueError):
        m.observe({0: [(2, 5000), (3, 10)]})   # 3 is older than 2
    assert list(m.profiles.get(0).items) == [1]
    m.observe({0: [(4, 5010)]})
    p0, p1 = m.profiles.get(0), m.profiles.get(1)
    assert m.pair_state(0, 1).hp_count == len(hammock_pairs(p0, p1, 2)) == 1


def test_pair_state_and_equality_flag():
    store = store_from([(0, 7, 10), (0, 8, 20), (1, 7, 100), (1, 8, 130)])
    m = CipUModel.train(store, 1, 5)
    st = m.pair_state(0, 1)
    assert isinstance(st, UserPairState)
    assert st.profiles_equal and st.similarity == 1.0
    with pytest.raises(ValueError):
        m.pair_state(0, 99)


def test_top_k_users_ordering_and_ties():
    # users 1 and 2 tie against user 0; ascending user id breaks the tie
    events = [(0, 1, 10), (0, 2, 20),
              (1, 1, 10), (1, 2, 20), (1, 3, 30),
              (2, 1, 10), (2, 2, 20), (2, 4, 30),
              (3, 9, 10)]
    m = CipUModel.train(store_from(events), 5, 5)
    top = m.top_k_users(0)
    assert [u for u, _ in top] == [1, 2]
    assert top[0][1] == top[1][1] > 0
    assert m.top_k_users(0, k=1) == [top[0]]
    assert m.top_k_users(3) == []   # no common items with anyone


def test_recommend_uses_neighbors_then_falls_back():
    events = [(0, 1, 10), (0, 2, 20),
              (1, 1, 10), (1, 2, 20), (1, 3, 30), (1, 4, 40),
              (2, 4, 10), (2, 4, 15)]
    m = CipUModel.train(store_from(events), 5, 5)
    # neighbor 1 supplies items 3 and 4; user 0 already has 1 and 2
    assert m.recommend(0, 2) == [3, 4]
    # unknown user falls back to popularity
    assert m.recommend(77, 3) == m.profiles.popular_ranking()[:3]


def test_constructor_validation():
    with pytest.raises(ValueError):
        CipUModel(-1, 5)
    with pytest.raises(ValueError):
        CipUModel(2, 0)


def test_params_reports_hyperparameters():
    m = CipUModel(3, 7)
    assert m.params == {"delta_h": 3, "k": 7}


def _trained_and_streamed(events, dh):
    """The same events built by ``train`` and by chunked ``observe``."""
    streamed = CipUModel(dh, 5)
    for chunk in chunked_batches(np.random.default_rng(dh), events, 4):
        streamed.observe(chunk)
    return CipUModel.train(store_from(events), dh, 5), streamed


@pytest.mark.parametrize("dh, items", [(3, [4]), (0, [4, 2, 9]), (2, [4, 2])])
def test_equal_profiles_score_one(dh, items):
    # equal single-item profiles, and equal profiles at delta_h 0, share
    # no hammock pair yet are identical
    events = ([(0, i, 10 + k) for k, i in enumerate(items)]
              + [(1, i, 100 + k) for k, i in enumerate(items)]
              + [(2, 7, 200), (2, items[0], 210)])
    for m in _trained_and_streamed(events, dh):
        p0, p1 = m.profiles.get(0), m.profiles.get(1)
        assert m.pair_state(0, 1).hp_count == len(hammock_pairs(p0, p1, dh))
        assert m.similarity(0, 1) == 1.0
        assert (1, 1.0) in m.top_k_users(0)
        assert (0, 1.0) in m.top_k_users(1)
        # once one profile grows, the two are no longer identical
        m.observe({1: [(8, 1000)]})
        want = pair_similarity(len(hammock_pairs(p0, p1, dh)), False)
        assert m.similarity(0, 1) == want
        assert dict(m.top_k_users(0)).get(1, 0.0) == want


@pytest.mark.parametrize("dh", [0, 1, 5])
def test_pair_counts_match_brute_force_after_train_and_observe(dh):
    rng = np.random.default_rng(30 + dh)
    events = random_stream(rng, 12, 10, 120)
    for m in _trained_and_streamed(events, dh):
        users = sorted(m.profiles.profiles)
        for u in users:
            for v in users:
                if u != v:
                    pu, pv = m.profiles.get(u), m.profiles.get(v)
                    want = len(hammock_pairs(pu, pv, dh))
                    assert m.pair_state(u, v).hp_count == want


@pytest.mark.parametrize("dh", [0, 1, 1000])
def test_streamed_store_equals_train_after_every_batch(dh):
    # batches keep bringing new users and new item ids; 1000 is longer
    # than every profile, so each pair of a profile is a token
    rng = np.random.default_rng(40 + dh)
    events = [(int(rng.integers(0, 2 + k // 6)), int(rng.integers(0, 3 + k // 3)), 10 * k)
              for k in range(150)]
    streamed = CipUModel(dh, 5)
    pos = 0
    for chunk in chunked_batches(rng, events, 12):
        streamed.observe(chunk)
        pos += sum(map(len, chunk.values()))
        h = streamed._h
        want = CipUModel.train(store_from(events[:pos]), dh, 5)._h
        assert h.shape == want.shape and (h != want).nnz == 0
        assert (h.data != 0).all() and not h.diagonal().any()


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunk_boundaries_change_no_count(monkeypatch, chunk):
    # the default budget holds each of these corpora in one chunk; at 1
    # every run is its own chunk, at 3 a chunk is a few runs, and the
    # sorted codes are read a few tokens at a time
    monkeypatch.setattr(cip_u, "TOKEN_CHUNK", chunk)
    made = []
    codes = CipUModel._codes

    def counted(self, *args):
        chunks = list(codes(self, *args))
        made.append(len(chunks))
        return iter(chunks)

    monkeypatch.setattr(CipUModel, "_codes", counted)
    test_train_matches_brute_force()
    for dh in (0, 1, 1000):
        test_streamed_store_equals_train_after_every_batch(dh)
    assert max(made) > 1


def test_train_peak_memory_per_token(monkeypatch):
    # tracemalloc peak of train, H included, per token at delta_h 10
    # (36,700 tokens, 60 users): about 52 B/token when the keys, the users, a
    # stable argsort and the pair temporaries of every token were alive
    # at once, 24.4 B/token with one code array sorted in place. A chunk
    # of the default budget holds this whole corpus, so the budget is
    # lowered to measure what a corpus of many chunks costs per token.
    monkeypatch.setattr(cip_u, "TOKEN_CHUNK", 256)
    rows = generate_events(seed=3, n_users=60, n_items=150, n_events=4000)
    store = ProfileStore(0, 0)
    store.extend(batches_from((u, i, t) for u, i, _, t in rows))
    lengths = [len(p.items) for p in store.profiles.values()]
    tokens = int(np.minimum(run_offsets(lengths), 10).sum())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        CipUModel.train(store, 10, 5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / tokens < 40


def test_code_bound_is_refused():
    # a token code (min * items + max) * users + user must fit in int64
    store = store_from([(0, 1, 10), (0, 2, 20)])
    store.item_ids, store.user_ids = range(2 ** 20), range(2 ** 23)
    with pytest.raises(ValueError, match=r"2\*\*63"):
        CipUModel.train(store, 3, 5)


def test_refused_batch_leaves_the_model_unchanged():
    # the batch's new user makes items² · users = 2**60 · 8 = 2**63
    m = CipUModel(3, 5)
    m.profiles.item_ids, m.profiles.user_ids = range(2 ** 30), list(range(7))
    with pytest.raises(ValueError, match=r"2\*\*63"):
        m.observe({7: [(1, 10)]})
    assert m.profiles.profiles == {} and m.profiles.user_ids == list(range(7))
    assert m._h.shape == (0, 0) and m._same == {}
    # a trained model, refused for the batch's largest item id
    m = CipUModel.train(store_from([(0, 1, 10), (0, 2, 20), (1, 1, 15)]), 1, 5)
    m.profiles.user_ids = range(2 ** 23)
    h, same = m._h.copy(), {key: set(users) for key, users in m._same.items()}
    with pytest.raises(ValueError, match=r"2\*\*63"):
        m.observe({1: [(2 ** 20, 30)]})
    assert {u: list(p.items) for u, p in m.profiles.profiles.items()} == {0: [1, 2], 1: [1]}
    assert m.profiles.item_ids == [0, 1, 2] and m._same == same
    assert m._h.shape == h.shape and (m._h != h).nnz == 0


def _equal_profile_groups(m):
    """The users of each group of equal profiles, brute force, and as
    the model groups them."""
    want = {}
    for u, prof in m.profiles.profiles.items():
        want.setdefault(tuple(prof.items), set()).add(u)
    return sorted(map(sorted, want.values())), sorted(map(sorted, m._same.values()))


def test_equal_profile_groups_match_brute_force_after_every_batch():
    # three items, so equal profiles form, split and re-form as they grow
    rng = np.random.default_rng(61)
    joined = 0
    for _ in range(30):
        events = [(int(rng.integers(0, 6)), int(rng.integers(0, 3)), 10 * k)
                  for k in range(30)]
        cut = int(rng.integers(0, len(events)))
        trained = CipUModel.train(store_from(events[:cut]), 1, 5)
        for m, rest in ((trained, events[cut:]), (CipUModel(1, 5), events)):
            want, got = _equal_profile_groups(m)
            assert got == want
            profs = m.profiles.profiles
            for batch in chunked_batches(rng, rest, 4):
                old = {u: len(p) for u, p in profs.items()}
                m.observe(batch)
                want, got = _equal_profile_groups(m)
                assert got == want
                grown = {u for u, p in profs.items() if len(p) != old.get(u, 0)}
                # an old profile that grew into one no grown user holds
                joined += any(profs[u].items == profs[v].items
                              for u in grown if old.get(u) for v in profs if v not in grown)
    assert joined
