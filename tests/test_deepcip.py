"""Skip-gram embeddings over item packs: pairs, gradients, training."""

import math
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ciprec import deepcip
from ciprec.deepcip import (DeepCipRecommender, EmbeddingModel, TrainConfig,
                            _fit, cip_vector, draw_negatives, gen_pairs,
                            most_similar, pair_count, sgns_batch, train)
from ciprec.ingest import ProfileStore, all_cips

from helpers import sgns_gradient_error, store_from


def test_gen_pairs_order_window_one():
    assert gen_pairs([5, 7, 9], [3], 1).tolist() == [[5, 7], [7, 5], [7, 9], [9, 7]]


def test_gen_pairs_order_window_two():
    # hand-enumerated: each position emits its window left-to-right
    assert gen_pairs([5, 7, 9], [3], 2).tolist() == [
        [5, 7], [5, 9], [7, 5], [7, 9], [9, 5], [9, 7]]


def _loop_pairs(seqs, window):
    """Reference: the per-sequence double loop, in its enumeration order."""
    out = []
    for seq in seqs:
        for t in range(len(seq)):
            for off in range(-window, window + 1):
                if off and 0 <= t + off < len(seq):
                    out.append([seq[t], seq[t + off]])
    return out


def test_gen_pairs_matches_the_loop_over_many_sequences():
    rng = np.random.default_rng(5)
    for _ in range(100):
        seqs = [rng.integers(0, 50, int(rng.integers(0, 9))).tolist()
                for _ in range(int(rng.integers(0, 6)))]
        window = int(rng.integers(1, 6))
        items, sizes = [i for seq in seqs for i in seq], [len(seq) for seq in seqs]
        assert gen_pairs(items, sizes, window).tolist() == _loop_pairs(seqs, window)


def test_gen_pairs_edge_cases():
    assert gen_pairs([3], [1], 5).tolist() == []
    assert gen_pairs([], [0], 5).tolist() == []
    assert gen_pairs([], [], 5).tolist() == []
    with pytest.raises(ValueError):
        gen_pairs([1, 2], [2], 0)


def test_pair_count_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(200):
        length = int(rng.integers(0, 12))
        window = int(rng.integers(1, 8))
        items = list(range(100, 100 + length))
        assert pair_count(length, window) == len(gen_pairs(items, [length], window))


def test_zero_init_loss_is_log2_per_output():
    # hand-derived: every dot is 0, so the positive and the k weight of
    # negatives of every pair contribute ln 2 each to the loss
    base0, base1 = np.zeros((2, 12)), np.zeros((7, 12))
    loss, _, _ = sgns_batch(base0, base1, np.array([0]), np.array([1]),
                            np.array([2, 3, 4, 5]), 4, 0.025)
    assert abs(loss - 5.0 * math.log(2.0)) < 1e-12   # 1 positive + 4 negatives
    loss, _, _ = sgns_batch(base0, base1, np.array([0, 1, 0]), np.array([1, 2, 1]),
                            np.full(5, 4), 5, 0.025)
    assert abs(loss - 18.0 * math.log(2.0)) < 1e-12  # 3 pairs x (1 + 5)
    # the third pair's context is two of the shared negatives: it keeps
    # the other three at weight 5/3 each
    loss, _, _ = sgns_batch(base0, base1, np.array([0, 1, 0]), np.array([1, 2, 3]),
                            np.array([3, 4, 5, 3, 6]), 5, 0.025)
    assert abs(loss - 18.0 * math.log(2.0)) < 1e-12


def test_gradients_match_central_differences():
    assert sgns_gradient_error(np.random.default_rng(42), 20) < 1e-4


def _loop_sgns(base0, base1, t_c, c_c, n_c, k, lr):
    """Reference: :func:`sgns_batch` pair by pair and output by output,
    its deltas added into zeros by ``np.add.at``."""
    loss, acc0, acc1 = 0.0, np.zeros_like(base0), np.zeros_like(base1)
    for t, c in zip(t_c, c_c):
        kept = [o for o in n_c if o != c]
        for o, label, weight in [(c, 1.0, 1.0), *((o, 0.0, k / len(kept)) for o in kept)]:
            dot = float(base0[t] @ base1[o])
            loss += weight * np.logaddexp(0.0, dot if label == 0.0 else -dot)
            g = weight * lr * (label - 1.0 / (1.0 + math.exp(-dot)))
            np.add.at(acc0, t, g * base1[o])
            np.add.at(acc1, o, g * base0[t])
    return loss, acc0, acc1


@pytest.mark.parametrize("case", ["repeats", "context-negative", "keeps-none", "distinct"])
def test_sgns_batch_equals_the_per_pair_loop(case):
    rng = np.random.default_rng(9)
    for _ in range(20):
        m, d = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        n0, n1 = (m, int(rng.integers(1, 40))) if case == "distinct" else rng.integers(1, 8, 2)
        t_c = rng.permutation(m) if case == "distinct" else rng.integers(0, n0, m)
        c_c = rng.integers(0, n1, m)
        n_c = rng.integers(0, n1, int(rng.integers(1, 9)))
        if case == "context-negative":
            n_c[int(rng.integers(len(n_c)))] = c_c[int(rng.integers(m))]
        elif case == "keeps-none":
            n_c[:] = c_c[0]
        base0, base1 = rng.normal(0.0, 0.8, (n0, d)), rng.normal(0.0, 0.8, (n1, d))
        k, lr = float(rng.integers(1, 6)), float(rng.uniform(0.01, 1.0))
        got, want = sgns_batch(base0, base1, t_c, c_c, n_c, k, lr), \
            _loop_sgns(base0, base1, t_c, c_c, n_c, k, lr)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        for g, w in zip(got[1:], want[1:]):
            assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


def test_sgns_batch_steps_decrease_pair_loss():
    rng = np.random.default_rng(7)
    base0 = rng.normal(0.0, 0.1, (1, 8))
    base1 = np.zeros((2, 8))
    batch = (np.array([0]), np.array([0]), np.array([1]), 1)
    losses = []
    for _ in range(60):
        loss, acc0, acc1 = sgns_batch(base0, base1, *batch, 0.5)
        base0 += acc0
        base1 += acc1
        losses.append(loss)
    assert losses[-1] < losses[0]
    # the positive dot should have turned positive
    assert float(base0[0] @ base1[0]) > 0.0


def test_sgns_batch_loss_is_within_4_ulp_and_finite_at_extreme_dots():
    # one dimension and a unit input vector make each dot exactly its output
    # row's value; a positive at +800 adds exactly 0, so a negative's term
    # stands alone. numpy's vector exp and log1p may round a few ulp apart
    # from the scalar libm calls np.logaddexp makes (its AVX-512 loops do)
    edges = [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 700.0, -700.0, 800.0, -800.0,
             *np.linspace(-800.0, 800.0, 2001)]
    base0 = np.ones((1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in edges:
            for base1, n_c, k, want in [
                    (np.array([[v]]), np.zeros(0, dtype=np.int64), 0.0, np.logaddexp(0.0, -v)),
                    (np.array([[800.0], [v]]), np.array([1]), 1.0, np.logaddexp(0.0, v))]:
                loss, acc0, acc1 = sgns_batch(base0, base1, np.array([0]), np.array([0]),
                                              n_c, k, 0.025)
                assert np.isfinite(loss) and abs(loss - want) <= 4 * np.spacing(want)
                assert np.isfinite(acc0).all() and np.isfinite(acc1).all()


@pytest.mark.parametrize("n0, n1", [(40, 70), (256, 281)])
def test_sgns_batch_equals_the_per_pair_loop_at_batch_shapes(n0, n1):
    # a training batch: 256 pairs, 25 shared negatives, 100 dimensions; at
    # (40, 70) rows repeat, as at the bench's corpora, and at (256, 281)
    # every pair has its own input row
    rng = np.random.default_rng(31)
    m, s, d = 256, 25, 100
    t_c = rng.permutation(m) if n0 == m else rng.integers(0, n0, m)
    c_c = rng.integers(0, n1, m)
    n_c = rng.integers(0, n1, s)
    n_c[1] = n_c[0]                     # a repeated negative
    if n0 < m:
        # negatives that are the contexts of several pairs on input row 3
        t_c[:6], c_c[:4], c_c[4:6] = 3, n_c[0], n_c[2]
    else:
        c_c[:3] = n_c[:3]               # negatives that are contexts
    base0, base1 = rng.normal(0.0, 0.3, (n0, d)), rng.normal(0.0, 0.3, (n1, d))
    got = sgns_batch(base0, base1, t_c, c_c, n_c, 5.0, 0.025)
    want = _loop_sgns(base0, base1, t_c, c_c, n_c, 5.0, 0.025)
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    for g, w in zip(got[1:], want[1:]):
        assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


def test_batch_unique_is_np_unique_per_batch():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n_batches, vocab = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        batch = np.sort(rng.integers(0, n_batches, int(rng.integers(0, 80))))
        rows = rng.integers(0, vocab, len(batch))
        uniq, at, inv = deepcip.batch_unique(rows, batch, n_batches, vocab)
        assert len(at) == n_batches + 1
        for b in range(n_batches):
            want, want_inv = np.unique(rows[batch == b], return_inverse=True)
            assert np.array_equal(uniq[at[b]:at[b + 1]], want)
            assert np.array_equal(inv[batch == b], want_inv)


@pytest.mark.parametrize("n_pairs", [1, 255, 256, 257, 600])
def test_shard_batches_match_per_batch_draws_and_row_sets(n_pairs):
    # few rows, so every row recurs within and across batches
    rng = np.random.default_rng(n_pairs)
    pairs_t, pairs_c = rng.integers(0, 9, n_pairs), rng.integers(0, 9, n_pairs)
    cum = np.cumsum(rng.random(9))
    k = 3

    def stream():
        return np.random.default_rng(np.random.SeedSequence([4, 0, n_pairs]))

    got = list(deepcip._shard_batches(pairs_t, pairs_c, cum, k, 9, stream()))
    per_batch = stream()
    assert len(got) == -(-n_pairs // deepcip.BATCH_PAIRS)
    for b, (rows0, rows1, t_c, c_c, n_c) in enumerate(got):
        lo = b * deepcip.BATCH_PAIRS
        t_rows = pairs_t[lo:lo + deepcip.BATCH_PAIRS]
        c_rows = pairs_c[lo:lo + deepcip.BATCH_PAIRS]
        neg = draw_negatives(cum, deepcip.NEGATIVE_SHARE * k, per_batch)
        want0, want_t = np.unique(t_rows, return_inverse=True)
        want1, want_out = np.unique(np.concatenate([c_rows, neg]), return_inverse=True)
        assert np.array_equal(rows0, want0) and np.array_equal(t_c, want_t)
        assert np.array_equal(rows1, want1)
        assert np.array_equal(np.concatenate([c_c, n_c]), want_out)


def test_initialization_contract():
    cfg = TrainConfig(dim=50, seed=9)
    m = EmbeddingModel.create([3, 1, 2], cfg)
    assert list(m.item_ids) == [1, 2, 3]          # vocabulary is sorted
    assert m.syn0.shape == (3, 50) and m.syn1.shape == (3, 50)
    assert np.all(m.syn1 == 0.0)
    assert np.all(np.abs(m.syn0) <= 0.5 / 50)
    assert not np.all(m.syn0 == 0.0)
    m2 = EmbeddingModel.create([3, 1, 2], cfg)
    assert np.array_equal(m.syn0, m2.syn0)        # seeded, reproducible


def test_negative_sampling_respects_exclusion_and_range():
    m = EmbeddingModel.create(list(range(50)), TrainConfig(dim=4, seed=2))
    m.set_counts(np.arange(1, 51, dtype=float))
    rng = np.random.default_rng(0)
    draws = draw_negatives(m._cum, 1000, rng)
    assert draws.shape == (1000,)
    assert draws.min() >= 0 and draws.max() < 50
    # unigram^(3/4) weighting: the most popular half dominates the draws
    assert np.mean(draws >= 25) > 0.6
    # a shared negative equal to a pair's context is masked for that pair
    # alone. At all-zero outputs every sigmoid is 1/2, so at lr 0.1 a
    # positive adds 0.05 vin and a negative of weight w adds -0.05 w vin:
    # pair 0 (context 7) keeps negative 3 at weight 2, pair 1 (context 3)
    # keeps both 7s at weight 1
    base0, base1 = rng.normal(0.0, 1.0, (2, 4)), np.zeros((8, 4))
    _, _, acc1 = sgns_batch(base0, base1, np.array([0, 1]), np.array([7, 3]),
                            np.array([7, 3, 7]), 2, 0.1)
    assert_allclose(acc1[7], 0.05 * base0[0] - 2 * 0.05 * base0[1])
    assert_allclose(acc1[3], 0.05 * base0[1] - 0.05 * 2 * base0[0])
    assert not acc1[[0, 1, 2, 4, 5, 6]].any()


def test_train_single_worker_is_bit_reproducible():
    packs = [[0, 1, 2, 3], [2, 3, 4], [0, 4, 1]] * 20
    cfg = TrainConfig(dim=16, window=3, negatives=4, epochs=3, workers=1, seed=5)
    a = train(packs, cfg)
    b = train(packs, cfg)
    assert np.array_equal(a.syn0, b.syn0)
    assert np.array_equal(a.syn1, b.syn1)
    assert a.epoch_losses == b.epoch_losses


def test_worker_processes_account_every_pair():
    # all-zero weights stay zero and every pair costs (1 + k) ln 2, so each
    # epoch's mean is exact only if no worker's loss or pair count is lost
    packs = [[0, 1, 2, 3], [2, 3, 4], [0, 4, 1]] * 40
    emb = EmbeddingModel(np.arange(5), np.zeros((5, 8)), np.zeros((5, 8)),
                         TrainConfig(dim=8))
    _fit(emb, np.array([r for p in packs for r in p]), np.array([len(p) for p in packs]),
         TrainConfig(dim=8, window=2, negatives=3, epochs=3, workers=4))
    assert len(emb.epoch_losses) == 3
    for loss in emb.epoch_losses:
        assert abs(loss - 4.0 * math.log(2.0)) < 1e-12
    assert not emb.syn0.any() and not emb.syn1.any()


def test_failed_worker_process_raises(monkeypatch):
    def broken(*args):
        raise ValueError("broken shard")
    monkeypatch.setattr(deepcip, "_train_shard", broken)
    with pytest.raises(RuntimeError, match="worker failed"):
        train([[0, 1, 2]] * 10, TrainConfig(dim=4, epochs=1, workers=2))


@pytest.mark.skipif(deepcip._blas_thread_count() is None,
                    reason="no OpenBLAS thread-count symbols found")
def test_training_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    get, put = deepcip._blas_thread_count()
    original = get()
    put(2)          # a count other than 1, so that a missed restore shows
    try:
        seen = []
        real = deepcip._train_shard

        def recording(*args):
            seen.append(get())
            real(*args)

        def broken(*args):
            raise ValueError("broken shard")

        monkeypatch.setattr(deepcip, "_train_shard", recording)
        emb = train([[0, 1, 2]] * 10, TrainConfig(dim=4, epochs=2))
        assert seen and set(seen) == {1} and get() == 2
        seen.clear()
        rec = DeepCipRecommender(emb, store_from([(0, 0, 10), (0, 1, 20)]), 60)
        rec.observe({0: [(2, 30)]})
        assert seen == [1] and get() == 2
        monkeypatch.setattr(deepcip, "_train_shard", broken)
        for workers, error in ((1, ValueError), (2, RuntimeError)):
            with pytest.raises(error):
                train([[0, 1, 2]] * 10, TrainConfig(dim=4, epochs=1, workers=workers))
            assert get() == 2
    finally:
        put(original)


def test_worker_processes_refuse_a_threaded_caller():
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        with pytest.raises(RuntimeError, match="no other threads"):
            train([[0, 1, 2]] * 10, TrainConfig(dim=4, epochs=1, workers=2))
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()


def test_train_loss_decreases():
    packs = [[0, 1, 2], [1, 2, 3], [0, 2, 3]] * 30
    m = train(packs, TrainConfig(dim=16, epochs=4, workers=1, seed=1))
    assert m.epoch_losses[-1] < m.epoch_losses[0]


def test_train_rejects_empty_corpus():
    with pytest.raises(ValueError):
        train([], TrainConfig())
    with pytest.raises(ValueError):
        train([[], []], TrainConfig())


@pytest.mark.parametrize("knob, value", [("dim", 0), ("window", 0), ("lr", 0.0),
                                         ("epochs", 0), ("workers", 0),
                                         ("negatives", -1), ("seed", -1)])
def test_out_of_range_knob_raises(knob, value):
    with pytest.raises(ValueError, match=knob):
        TrainConfig(**{knob: value})


def test_negative_delta_raises():
    with pytest.raises(ValueError, match="delta"):
        DeepCipRecommender(EmbeddingModel.create([1], TrainConfig(dim=2)),
                           ProfileStore(0, 0), -1)


def test_observe_extends_vocabulary_and_keeps_cold_rows():
    store = store_from([(0, 0, 10), (0, 1, 20), (0, 2, 30), (1, 5, 10), (1, 6, 20)])
    emb = train(all_cips(store, 60), TrainConfig(dim=8, epochs=2, seed=3))
    frozen = {i: emb.syn0[emb.row[i]].copy() for i in (0, 1, 2, 5)}
    rec = DeepCipRecommender(emb, store, 60)
    rec.observe({1: [(7, 30), (8, 40)]})
    assert rec.model is emb
    assert emb.item_ids.tolist() == [0, 1, 2, 5, 6, 7, 8]
    # items no grown pack holds keep their input vectors to the bit; the
    # grown pack [5, 6, 7, 8] trains item 5 as well
    for i in (0, 1, 2):
        assert np.array_equal(emb.syn0[emb.row[i]], frozen[i])
    assert not np.array_equal(emb.syn0[emb.row[5]], frozen[5])
    assert not np.array_equal(emb.syn0[emb.row[7]], np.zeros(8))


def test_cip_vector_and_most_similar():
    cfg = TrainConfig(dim=2, seed=1)
    m = EmbeddingModel.create([10, 20, 30, 40], cfg)
    m.syn0 = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.0]])
    vec = cip_vector(m, [10, 30])
    assert_allclose(vec, [0.5, 0.5])
    sims = most_similar(m, [10], 2, exclude=[10])
    assert [i for i, _ in sims] == [20, 30]
    assert sims[0][1] > sims[1][1]
    # without exclusion the query item itself ranks first (cosine 1)
    assert most_similar(m, [10], 1)[0][0] == 10
    with pytest.raises(ValueError):
        cip_vector(m, [99])
    # unknown ids in a mixed query are ignored
    assert_allclose(cip_vector(m, [10, 99]), [1.0, 0.0])


def test_most_similar_equals_a_brute_force_sort_with_exclusions():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = EmbeddingModel.create(rng.choice(100, int(rng.integers(2, 30)), replace=False),
                                  TrainConfig(dim=3, seed=2))
        ids = m.item_ids.tolist()                      # row order
        # a few rows repeated, so cosines tie and ids break the ties
        m.syn0 = rng.integers(-2, 3, (len(ids), 3)).astype(np.float64)
        m.syn0[0] = [1.0, 1.0, 1.0]
        exclude = set(rng.choice(120, int(rng.integers(0, 12))).tolist())
        n = int(rng.integers(1, len(ids) + 3))
        q = cip_vector(m, [ids[0]])
        norms = np.linalg.norm(m.syn0, axis=1)
        norms[norms == 0.0] = 1.0
        cos = (m.syn0 @ q) / (norms * np.linalg.norm(q))
        want = sorted(((-cos[r], i) for r, i in enumerate(ids) if i not in exclude))
        got = most_similar(m, [ids[0]], n, exclude=exclude)
        assert got == [(i, -c) for c, i in want[:n]]


def test_recommender_uses_last_pack_and_falls_back():
    store = store_from([(0, 1, 10), (0, 2, 20), (0, 3, 10_000), (1, 2, 15)])
    packs = [[1, 2], [2, 3], [1, 3]] * 10
    emb = train(packs, TrainConfig(dim=8, epochs=2, seed=2))
    rec = DeepCipRecommender(emb, store, 60)
    out = rec.recommend(0, 2)
    # consumed items never appear
    assert set(out).isdisjoint({1, 2, 3})
    # unknown user gets the popularity ranking
    assert rec.recommend(99, 2) == store.popular_ranking()[:2]
    assert rec.params["delta"] == 60


def test_recommender_observe_updates_embeddings():
    store = store_from([(0, 1, 10), (0, 2, 20)])
    emb = train([[1, 2]] * 10, TrainConfig(dim=8, epochs=2, seed=4))
    rec = DeepCipRecommender(emb, store, 60)
    before_1 = emb.syn0[emb.row[1]].copy()
    rec.observe({0: [(3, 30), (4, 40)]})
    assert list(store.get(0).items) == [1, 2, 3, 4]
    assert 3 in emb.row and 4 in emb.row
    # the extended pack [1, 2, 3, 4] retrains item 1 as well
    assert not np.array_equal(emb.syn0[emb.row[1]], before_1)


def test_observe_draws_negatives_from_the_whole_corpus():
    store = store_from([(0, 1, 10), (0, 2, 20), (1, 4, 10), (1, 5, 20), (1, 6, 30),
                        (2, 2, 10), (2, 4, 20), (2, 6, 30)])
    emb = train(all_cips(store, 60), TrainConfig(dim=8, epochs=2, seed=4))
    rec = DeepCipRecommender(emb, store, 60)
    rec.observe({0: [(3, 30)]})
    # the warm start trains on user 0's pack only; its negatives still
    # follow every pack's counts, not that pack's own members
    assert emb.counts.tolist() == store.item_counts()[emb.item_ids].tolist()
    assert dict(zip(emb.item_ids.tolist(), emb.counts.tolist())) == {
        1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 2}
    neg = draw_negatives(emb._cum, 2500, np.random.default_rng(0))
    assert set(emb.item_ids[np.unique(neg)]) == {1, 2, 3, 4, 5, 6}


def test_observe_keeps_the_trained_config():
    store = store_from([(0, 1, 10), (0, 2, 20)])
    emb = train([[1, 2]] * 10, TrainConfig(dim=8, epochs=3, seed=4))
    rec = DeepCipRecommender(emb, store, 60)
    rec.observe({0: [(3, 30)]})
    assert rec.params["epochs"] == 3 and len(emb.epoch_losses) == 1
