"""Skip-gram embeddings over item packs: pairs, gradients, training."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ciprec.deepcip import (DeepCipRecommender, EmbeddingModel, TrainConfig,
                            cip_vector, gen_pairs, most_similar, pair_count,
                            sgns_loss_grads, sgns_step, train)
from ciprec.ingest import ProfileStore

from helpers import store_from


def test_gen_pairs_order_window_one():
    assert gen_pairs([[5, 7, 9]], 1).tolist() == [[5, 7], [7, 5], [7, 9], [9, 7]]


def test_gen_pairs_order_window_two():
    # hand-enumerated: each position emits its window left-to-right
    assert gen_pairs([[5, 7, 9]], 2).tolist() == [
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
        assert gen_pairs(seqs, window).tolist() == _loop_pairs(seqs, window)


def test_gen_pairs_edge_cases():
    assert gen_pairs([[3]], 5).tolist() == []
    assert gen_pairs([[]], 5).tolist() == []
    assert gen_pairs([], 5).tolist() == []
    with pytest.raises(ValueError):
        gen_pairs([[1, 2]], 0)


def test_pair_count_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(200):
        length = int(rng.integers(0, 12))
        window = int(rng.integers(1, 8))
        items = list(range(100, 100 + length))
        assert pair_count(length, window) == len(gen_pairs([items], window))


def test_zero_init_loss_is_log2_per_output():
    # hand-derived: every dot is 0, so each of the 1 + k outputs
    # contributes ln 2 to the loss
    m = EmbeddingModel.create([0, 1, 2, 3, 4, 5, 6], TrainConfig(dim=12, seed=3))
    m.syn0[:] = 0.0
    loss, g_in, g_out = sgns_loss_grads(
        m.syn0[0], m.syn1[[1, 2, 3, 4, 5]], np.array([1.0, 0, 0, 0, 0]))
    assert abs(loss - 5.0 * math.log(2.0)) < 1e-12   # 1 positive + 4 negatives
    m.set_counts(np.ones(7))
    rng = np.random.default_rng(0)
    step_loss = sgns_step(m, 0, 1, 0.025, rng, negatives=5)
    assert abs(step_loss - 6.0 * math.log(2.0)) < 1e-12  # 1 positive + 5 negatives


def test_gradients_match_central_differences():
    rng = np.random.default_rng(42)
    eps = 1e-6
    for _ in range(20):
        d = int(rng.integers(3, 9))
        rows = int(rng.integers(2, 6))
        v = rng.normal(0.0, 0.5, d)
        out = rng.normal(0.0, 0.5, (rows, d))
        labels = np.zeros(rows)
        labels[0] = 1.0
        _, g_in, g_out = sgns_loss_grads(v, out, labels)
        for j in range(d):
            vp, vm = v.copy(), v.copy()
            vp[j] += eps
            vm[j] -= eps
            num = (sgns_loss_grads(vp, out, labels)[0]
                   - sgns_loss_grads(vm, out, labels)[0]) / (2 * eps)
            assert abs(num - g_in[j]) <= 1e-4 * max(1.0, abs(num))
        for r in range(rows):
            for j in range(d):
                op, om = out.copy(), out.copy()
                op[r, j] += eps
                om[r, j] -= eps
                num = (sgns_loss_grads(v, op, labels)[0]
                       - sgns_loss_grads(v, om, labels)[0]) / (2 * eps)
                assert abs(num - g_out[r, j]) <= 1e-4 * max(1.0, abs(num))


def test_sgns_step_decreases_pair_loss():
    m = EmbeddingModel.create([0, 1], TrainConfig(dim=8, seed=1))
    m.set_counts(np.ones(2))
    rng = np.random.default_rng(7)
    losses = [sgns_step(m, 0, 1, 0.5, rng, negatives=1) for _ in range(60)]
    assert losses[-1] < losses[0]
    # the positive dot should have turned positive
    assert float(m.syn0[m.row[0]] @ m.syn1[m.row[1]]) > 0.0


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
    cfg = TrainConfig(dim=4, seed=2)
    m = EmbeddingModel.create(list(range(50)), cfg)
    m.set_counts(np.arange(1, 51, dtype=float))
    rng = np.random.default_rng(0)
    draws = np.concatenate([m.sample_negatives(7, 5, rng) for _ in range(200)])
    assert draws.min() >= 0 and draws.max() < 50
    assert np.count_nonzero(draws == 7) == 0
    # unigram^(3/4) weighting: the most popular half dominates the draws
    assert np.mean(draws >= 25) > 0.6


def test_train_single_worker_is_bit_reproducible():
    packs = [[0, 1, 2, 3], [2, 3, 4], [0, 4, 1]] * 20
    cfg = TrainConfig(dim=16, window=3, negatives=4, epochs=3, workers=1, seed=5)
    a = train(packs, cfg)
    b = train(packs, cfg)
    assert np.array_equal(a.syn0, b.syn0)
    assert np.array_equal(a.syn1, b.syn1)
    assert a.epoch_losses == b.epoch_losses


def test_train_loss_decreases():
    packs = [[0, 1, 2], [1, 2, 3], [0, 2, 3]] * 30
    m = train(packs, TrainConfig(dim=16, epochs=4, workers=1, seed=1))
    assert m.epoch_losses[-1] < m.epoch_losses[0]


def test_train_rejects_empty_corpus():
    with pytest.raises(ValueError):
        train([], TrainConfig())
    with pytest.raises(ValueError):
        train([[], []], TrainConfig())


def test_warm_start_extends_vocabulary_and_keeps_cold_rows():
    base = train([[0, 1, 2]] * 10, TrainConfig(dim=8, epochs=2, seed=3))
    frozen = base.syn0.copy()
    row0 = base.row[0]
    m = train([[7, 8]] * 5, TrainConfig(dim=8, epochs=1, seed=3), model=base)
    assert m is base
    assert 7 in m.row and 8 in m.row
    # items absent from the new corpus keep their input vectors
    assert np.array_equal(m.syn0[row0], frozen[row0])
    assert not np.array_equal(m.syn0[m.row[7]], np.zeros(8))


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
    assert store.get(0).items == [1, 2, 3, 4]
    assert 3 in emb.row and 4 in emb.row
    # the extended pack [1, 2, 3, 4] retrains item 1 as well
    assert not np.array_equal(emb.syn0[emb.row[1]], before_1)
