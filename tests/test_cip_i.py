"""Item-pair scores from within-pack co-consumption."""

import numpy as np
import pytest

from ciprec import cip_i
from ciprec.cip_i import ONE, CipIModel
from ciprec.ingest import all_cips

from helpers import cards, chunked_batches, random_stream, store_from, store_of_packs


def test_single_pack_scores_frozen():
    # hand-derived for pack [a, b, c]: adjacent pairs score 1 + 1/1,
    # the distance-2 pair scores 1 + 1/2, in units of ONE
    m = CipIModel.train(store_of_packs([[0, 1, 2]]), 60, 5)
    assert m.score[0][1] == 2 * ONE
    assert m.score[1][2] == 2 * ONE
    assert m.score[0][2] == 3 * ONE // 2
    assert 1 not in m.score.get(2, {}) and 0 not in m.score.get(1, {})
    assert cards(m) == {0: 1, 1: 1, 2: 1}
    assert m.similarity(0, 1) == 1.0
    assert m.similarity(0, 2) == 0.75


def test_two_pack_similarity_frozen():
    # hand-derived: packs [a, b] and [a, c, b] give score(a,b) = 2 + 1.5,
    # both cards 2, so similarity 3.5 / 4
    m = CipIModel.train(store_of_packs([[0, 1], [0, 2, 1]]), 60, 5)
    assert m.similarity(0, 1) == 0.875


def test_similarity_one_iff_always_immediately_after():
    one = CipIModel.train(store_of_packs([[0, 1], [2, 0, 1], [0, 1, 3]]), 60, 5)
    assert one.similarity(0, 1) == 1.0
    # a pack where 0 appears without 1 right after breaks the ceiling
    broken = CipIModel.train(store_of_packs([[0, 1], [0, 2]]), 60, 5)
    assert broken.similarity(0, 1) < 1.0
    # symmetric direction does not count: [1, 0] gives score to (1, 0) only
    rev = CipIModel.train(store_of_packs([[1, 0]]), 60, 5)
    assert rev.similarity(0, 1) == 0.0 and rev.similarity(1, 0) == 1.0


def test_unrelated_items_score_zero():
    m = CipIModel.train(store_of_packs([[0, 1], [2, 3]]), 60, 5)
    assert m.similarity(0, 2) == 0.0
    assert m.similarity(9, 17) == 0.0   # never-seen items


def test_streaming_equals_one_shot():
    rng = np.random.default_rng(17)
    for _ in range(300):
        events = random_stream(rng, 5, 12, int(rng.integers(5, 40)),
                               max_gap=120, unique_per_user=True)
        store = store_from(events)
        batch = CipIModel.train(store, 40, 5)
        stream = CipIModel(40, 5)
        for u, i, t in events:
            stream.observe({u: [(i, t)]})
        # integer sums: equal, whatever the order of the additions
        assert cards(batch) == cards(stream)
        assert batch.score == stream.score
        for a, row in batch.score.items():
            for b in row:
                assert 0.0 <= batch.similarity(a, b) <= 1.0


def test_train_from_pack_arrays_equals_folding_all_cips_pack_by_pack():
    rng = np.random.default_rng(23)
    for _ in range(100):
        events = random_stream(rng, 6, 15, int(rng.integers(0, 60)), max_gap=80)
        store = store_from(events)
        for delta in (0, 60, 10**12):
            trained = CipIModel.train(store, delta, 3)
            # every pack its own user, folded one user at a time
            folded = CipIModel(delta, 3)
            for u, items in enumerate(all_cips(store, delta)):
                folded.observe({u: [(i, 0) for i in items]})
            assert trained.score == folded.score and cards(trained) == cards(folded)
            folded.profiles = store
            for u in store.profiles:
                assert trained.recommend(u, 5) == folded.recommend(u, 5)


def test_train_in_runs_of_packs_equals_train_in_one_run(monkeypatch):
    rng = np.random.default_rng(29)
    stores = []
    for _ in range(60):
        events = random_stream(rng, 6, 15, int(rng.integers(0, 80)), max_gap=80)
        stores.append(store_from(events))
    whole = [CipIModel.train(store, 60, 3) for store in stores]
    for budget in (1, 2, 7):              # runs of one pack and of several
        monkeypatch.setattr(cip_i, "_PAIR_BUDGET", budget)
        for store, want in zip(stores, whole):
            got = CipIModel.train(store, 60, 3)
            assert got.score == want.score


def test_apply_events_spanning_the_gap_starts_a_new_pack():
    m = CipIModel(60, 5)
    m.observe({0: [(1, 100), (2, 150)]})
    m.observe({0: [(3, 5000)]})        # far beyond delta: new pack
    m.observe({0: [(4, 5010)]})        # extends the second pack
    want = CipIModel.train(m.profiles, 60, 5)
    assert m.score == want.score


def test_late_event_rejects_the_whole_batch():
    m = CipIModel(60, 5)
    m.observe({0: [(1, 100)]})
    with pytest.raises(ValueError):
        m.observe({0: [(2, 5000), (3, 10)]})   # 3 is older than 2
    assert list(m.profiles.get(0).items) == [1]
    m.observe({0: [(4, 5010)]})
    want = CipIModel.train(m.profiles, 60, 5)
    assert m.score == want.score


def test_top_k_ordering_and_ties():
    # item 0 pairs equally with 1 and 2; ascending id breaks the tie
    m = CipIModel.train(store_of_packs([[0, 1], [0, 2]]), 60, 5)
    top = m.top_k(0)
    assert [j for j, _ in top] == [1, 2]
    assert top[0][1] == top[1][1] == 0.5
    assert m.top_k(0, k=1) == [top[0]]
    assert m.top_k(42) == []


def test_recommend_tallies_neighbor_lists():
    # user 9's profile is [0]; 0's strongest successor is 1, then 2
    m = CipIModel.train(store_of_packs([[0, 1], [0, 1, 2], [0, 2]]), 60, 5)
    m.observe({9: [(0, 10_000_000)]})
    recs = m.recommend(9, 3)
    assert recs[0] in (1, 2) and set(recs) == {1, 2}


def test_recommend_falls_back_to_popularity():
    m = CipIModel.train(store_of_packs([[0, 1], [0, 2]]), 60, 5)
    pops = m.profiles.popular_ranking()
    assert m.recommend(999, 2) == pops[:2]   # unknown user


def test_constructor_validation_and_params():
    with pytest.raises(ValueError):
        CipIModel(-1, 5)
    with pytest.raises(ValueError):
        CipIModel(60, 0)
    assert CipIModel(60, 30).params == {"delta": 60, "k": 30}


# packs of users 0-4; user 4's profile is [0]. Row 0 has successors 1
# and 2, both at similarity 2 / 6 with card(0) = card(1) = 3, so with
# k = 1 the tie goes to 1.
_FLIP_PACKS = [[0, 1], [0, 2], [1], [1], [0]]


def test_card_bump_from_another_user_reorders_a_cached_row():
    m = CipIModel.train(store_of_packs(_FLIP_PACKS), 60, 1)
    assert m.recommend(4, 3) == [1]        # row 0 is now cached
    # user 5 consumes only item 1: no score changes, card(1) becomes 4,
    # which drops similarity(0, 1) to 2 / 8 below similarity(0, 2)
    m.observe({5: [(1, 10_000_000)]})
    assert m.score == CipIModel.train(store_of_packs(_FLIP_PACKS), 60, 1).score
    assert not m._valid[0]                 # a long row holding the bumped item
    want = CipIModel.train(m.profiles, 60, 1)
    assert m.recommend(4, 3) == want.recommend(4, 3) == [2]


def test_observe_of_a_new_pack_after_recommend_is_served():
    m = CipIModel.train(store_of_packs(_FLIP_PACKS), 60, 1)
    assert m.recommend(4, 3) == [1]
    m.observe({5: [(0, 0), (2, 0)]})       # user 5's one pack [0, 2]
    want = CipIModel.train(store_of_packs(_FLIP_PACKS + [[0, 2]]), 60, 1)
    assert m.recommend(4, 3) == want.recommend(4, 3) == [2]


def test_top_k_reports_exact_similarities_in_a_fresh_list():
    events = random_stream(np.random.default_rng(3), 6, 15, 120, max_gap=40,
                           unique_per_user=True)
    m = CipIModel.train(store_from(events), 60, 4)
    for u in m.profiles.profiles:
        m.recommend(u, 5)                  # warm the cache
    for i in m.score:
        top = m.top_k(i)
        assert top and all(s == m.similarity(i, j) for j, s in top)
        kept = list(top)
        top.clear()
        assert m.top_k(i) == kept


def test_recommend_equals_a_dict_tally_of_top_k():
    from ciprec.synthetic import generate_events

    rows = generate_events(seed=5, n_users=60, n_items=150, n_events=4000,
                           n_genres=6)
    store = store_from((u, i, t) for u, i, _, t in rows)
    m = CipIModel.train(store, 60, 10)
    for u in sorted(store.profiles):
        items = store.profiles[u].items
        counts: dict[int, int] = {}
        for i in items:
            for j, _ in m.top_k(i):
                if j not in items:
                    counts[j] = counts.get(j, 0) + 1
        ranked = sorted(counts.items(), key=lambda t: (-t[1], t[0]))
        want = [j for j, _ in ranked[:10]] or store.popular(10, items)
        assert m.recommend(u, 10) == want


def _cold(m):
    """A copy of m sharing its stores but with an empty cache."""
    cold = CipIModel(m.delta, m.k)
    cold.score, cold.profiles = m.score, m.profiles
    return cold


def test_cached_lists_equal_a_cold_cache_after_every_step():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n_users, n_items = int(rng.integers(2, 7)), int(rng.integers(4, 14))
        events = random_stream(rng, n_users, n_items, int(rng.integers(10, 60)),
                               max_gap=60, unique_per_user=True)
        m = CipIModel(40, int(rng.integers(1, 4)))
        pack_user = n_users                # users past the stream's own
        for batch in chunked_batches(rng, events, 5):
            if rng.random() < 0.3:
                size = int(rng.integers(1, 5))
                pack = rng.choice(n_items, size, replace=False).tolist()
                m.observe({pack_user: [(i, 0) for i in pack]})
                pack_user += 1
            m.observe(batch)
            cold = _cold(m)
            for u in sorted(m.profiles.profiles):
                assert m.recommend(u, 4) == cold.recommend(u, 4)


def test_cached_lists_equal_a_cold_cache_after_every_step_from_a_trained_model():
    # as above, but from a full cache: train on the first part of the
    # stream, so every fold drops rows out of a cache where all are valid
    rng = np.random.default_rng(31)
    for _ in range(25):
        n_users, n_items = int(rng.integers(2, 7)), int(rng.integers(4, 14))
        events = random_stream(rng, n_users, n_items, int(rng.integers(10, 60)),
                               max_gap=60, unique_per_user=True)
        cut = int(rng.integers(1, len(events)))
        m = CipIModel.train(store_from(events[:cut]), 40, int(rng.integers(1, 4)))
        assert len(m._valid) == m.profiles.num_items and m._valid.all()
        pack_user = n_users
        for batch in chunked_batches(rng, events[cut:], 5):
            if rng.random() < 0.3:
                size = int(rng.integers(1, 5))
                pack = rng.choice(n_items, size, replace=False).tolist()
                m.observe({pack_user: [(i, 0) for i in pack]})
                pack_user += 1
            m.observe(batch)
            cold = _cold(m)
            for u in sorted(m.profiles.profiles):
                assert m.recommend(u, 4) == cold.recommend(u, 4)


def test_trained_model_ranks_every_row(monkeypatch):
    from ciprec.analysis import precision_at_n
    from ciprec.ingest import EventLog
    from ciprec.synthetic import generate_events

    rows = generate_events(seed=7, n_users=50, n_items=120, n_events=3000,
                           n_genres=6)
    # single-item packs leave rows 0, 1, 3 and 4 with no scores
    stores = [store_from((u, i, t) for u, i, _, t in rows),
              store_of_packs([[0], [1], [2, 3], [4], [0]])]
    for store in stores:
        m = CipIModel.train(store, 60, 10)
        assert len(m._valid) == store.num_items and m._valid.all()
        for i in range(store.num_items):
            cached = m._top[i][m._top[i] >= 0].tolist()
            assert len(cached) == len(set(cached))
            assert set(cached) == {j for j, _ in m.top_k(i)}
        users = sorted(store.profiles)
        # each user's next event is one of the catalog's items
        test = EventLog(users, [u % store.num_items for u in users],
                        np.arange(len(users)) + 10**9,
                        store.user_ids, store.item_ids)
        calls = []
        ranked = CipIModel._top_rows
        monkeypatch.setattr(CipIModel, "_top_rows",
                            lambda self, *a: calls.append(a) or ranked(self, *a))
        precision_at_n(m, test, 10)
        assert calls == []
        monkeypatch.undo()
        cold = _cold(m)
        assert ([m.recommend(u, 10) for u in users]
                == [cold.recommend(u, 10) for u in users])


def test_short_row_keeps_its_cached_set_across_a_member_bump():
    # user 3's profile is [0]; row 0 holds 1 and 2, fewer than k = 5, so
    # a card bump of 1 cannot change which ids it holds
    m = CipIModel.train(store_of_packs([[0, 1], [0, 2], [0, 2], [0]]), 60, 5)
    assert m.recommend(3, 3) == [1, 2]
    cached = m._top[0].copy()
    m.observe({4: [(1, 10_000_000)]})
    assert m._valid[0] and np.array_equal(m._top[0], cached)
    assert m.recommend(3, 3) == _cold(m).recommend(3, 3)


def test_short_row_is_dropped_when_it_gains_an_entry():
    # user 1's profile is [0]
    m = CipIModel.train(store_of_packs([[0, 1], [0]]), 60, 5)
    assert m.recommend(1, 3) == [1]
    m.observe({2: [(0, 0), (2, 0)]})       # row 0 stays short: rescored only
    assert not m._valid[0]
    assert m.recommend(1, 3) == [1, 2]


# row 0 with k = 1: score(0, 1) = 2 with card(1) = 1, score(0, 2) = 4 with
# card(2) = 9 and card(0) = 4, so similarity 2/8 beats 4/18; card(0) = 5
# turns that into 2/10 against 4/18. User 10's profile is [0].
_OWN_PACKS = [[0, 1], [0, 2], [0, 2], [2], [2], [2], [2], [2], [2], [2], [0]]


def test_long_row_is_dropped_when_its_own_card_is_bumped():
    m = CipIModel.train(store_of_packs(_OWN_PACKS), 60, 1)
    assert m.recommend(10, 3) == [1]
    m.observe({11: [(0, 10_000_000)]})     # card(0): 4 -> 5, no score change
    assert not m._valid[0]
    assert m.recommend(10, 3) == [2]


def test_top_k_equals_a_brute_force_sort_of_similarities():
    events = random_stream(np.random.default_rng(8), 8, 20, 200, max_gap=40,
                           unique_per_user=True)
    m = CipIModel.train(store_from(events), 60, 4)
    for i, row in m.score.items():
        brute = sorted(((j, m.similarity(i, j)) for j in row),
                       key=lambda t: (-t[1], t[0]))
        for k in (1, 2, 4, len(row), len(row) + 3):
            assert m.top_k(i, k) == brute[:k]
        assert m.top_k(i) == brute[:4]
