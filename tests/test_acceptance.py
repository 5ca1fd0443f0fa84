"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` verdict line (run pytest
with ``-s`` to see them all) and then asserts the same condition, so the
suite both documents and enforces the bar. Criterion 10 measures real
multi-worker throughput at W = min(4, usable cores) workers against
1 worker, best of 3 interleaved rounds per arm, and requires a speed-up
of at least 3W/(W+2) — Amdahl's law with a serial fraction of at most
1/3, i.e. >= 2.0 at 4 workers, 1.5 at 2. It is skipped on hosts with a
single usable core; the verdict line reports W, the usable core count,
both best throughputs, the ratio and the bar.
"""

import math
import os
from itertools import chain, permutations, product
from time import perf_counter

import numpy as np
import pytest
from numpy.random import default_rng

from ciprec.analysis import ItemGraph, modularity, precision_at_n
from ciprec.cip_i import ONE, CipIModel
from ciprec.cip_u import CipUModel, pair_similarity
from ciprec.deepcip import DeepCipRecommender, TrainConfig, pair_count, train
from ciprec.fism import FismModel
from ciprec.ingest import (ProfileStore, all_cips, build_profiles,
                           parse_events, temporal_split)
from ciprec.persistence import dump_events, load_model, save_model
from ciprec.popularity import PopularityModel
from ciprec.synthetic import generate_events, planted_clusters, write_ml_tab

from helpers import (chunked_batches, random_stream, sgns_gradient_error,
                     store_from, store_of_packs)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}",
          flush=True)
    assert ok, f"acceptance {num}: {detail}"


@pytest.fixture(scope="module")
def ml_log(tmp_path_factory):
    """A 943-user / 1682-item / 100k-event log in ml-tab form.

    Uses a real tab-separated log when CIPREC_ML100K points at one,
    otherwise the bundled deterministic generator (seed 7).
    """
    real = os.environ.get("CIPREC_ML100K")
    if real:
        return parse_events(real, "ml-tab")
    path = tmp_path_factory.mktemp("ml") / "u.data"
    write_ml_tab(path, generate_events(seed=7))
    return parse_events(path, "ml-tab")


# --------------------------------------------------------------------------
# 1. user-pair store: any batching reproduces the from-scratch state


def test_acceptance_01_user_store_incremental_equals_batch():
    rng = default_rng(101)
    t0 = perf_counter()
    for _ in range(200):
        n_users = int(rng.integers(2, 51))
        n_items = int(rng.integers(5, 101))
        events = random_stream(rng, n_users, n_items,
                               int(rng.integers(20, 120)))
        store = store_from(events)
        dh = int(rng.integers(0, 8))
        batch = CipUModel.train(store, dh, 10)
        inc = CipUModel(dh, 10)
        for chunk in chunked_batches(rng, events, int(rng.integers(2, 30))):
            inc.observe(chunk)
        users = sorted(store.profiles)
        for a in range(len(users)):
            for b in range(a + 1, len(users)):
                u, v = users[a], users[b]
                assert batch.pair_state(u, v).hp_count == \
                    inc.pair_state(u, v).hp_count
                assert batch.similarity(u, v) == inc.similarity(u, v)
    elapsed = perf_counter() - t0
    _verdict(1, elapsed < 10.0,
             "200 randomized streams, arbitrary batchings: pair counts and "
             f"similarities exactly match a from-scratch build, "
             f"{elapsed:.2f}s (< 10 s)")


# --------------------------------------------------------------------------
# 2. item-pair store: streaming in chunks reproduces one-shot accumulation


def test_acceptance_02_item_store_streaming_equals_one_shot():
    rng = default_rng(202)
    t0 = perf_counter()
    for _ in range(10_000):
        n_items = int(rng.integers(3, 12))
        events = random_stream(rng, int(rng.integers(1, 5)), n_items,
                               int(rng.integers(4, 16)), max_gap=90,
                               unique_per_user=True)
        store = store_from(events)
        one = CipIModel.train(store, 60, 5)
        streamed = CipIModel(60, 5)
        for chunk in chunked_batches(rng, events, 6):
            streamed.observe(chunk)
        assert np.array_equal(streamed.profiles.item_counts(), one.profiles.item_counts())
        assert streamed.score == one.score
        for i, row in one.score.items():
            for j in row:
                sim = one.similarity(i, j)
                assert 0.0 <= sim <= 1.0
    elapsed = perf_counter() - t0
    _verdict(2, elapsed < 10.0,
             "10000 fuzzed corpora: streamed score/cardinality stores equal "
             f"one-shot, similarities in [0, 1], "
             f"{elapsed:.2f}s (< 10 s)")


# --------------------------------------------------------------------------
# 3. user-pair similarity boundaries, exhaustive on a 4-item catalog


def _brute_hammock_count(pa, pb, dh):
    """Unordered item pairs common to both profiles whose positional
    distance stays within dh on both sides."""
    count = 0
    common = [x for x in pa if x in pb]
    for k in range(len(common)):
        for l in range(k + 1, len(common)):
            x, y = common[k], common[l]
            if (abs(pa.index(x) - pa.index(y)) <= dh
                    and abs(pb.index(x) - pb.index(y)) <= dh):
                count += 1
    return count


def test_acceptance_03_user_similarity_boundaries_exhaustive():
    profs = [()] + [p for length in range(1, 5)
                    for p in permutations(range(4), length)]
    assert len(profs) == 65
    t0 = perf_counter()
    pairs = 0
    for pa, pb in product(profs, repeat=2):
        equal = pa == pb
        for dh in (0, 1, 2, 3, 5):
            hp = _brute_hammock_count(list(pa), list(pb), dh)
            sim = pair_similarity(hp, equal)
            if equal:
                assert sim == 1.0
            elif hp == 0:
                assert sim == 0.0
            else:
                assert 0.0 < sim < 1.0
                assert sim == 1.0 - math.exp(-hp)
        pairs += 1
    # same boundaries through the trained model
    for pa, pb in product([p for p in profs if p], repeat=2):
        store = store_from(
            [(0, i, 10 + k) for k, i in enumerate(pa)]
            + [(1, i, 500 + k) for k, i in enumerate(pb)])
        model = CipUModel.train(store, 2, 5)
        want = pair_similarity(_brute_hammock_count(list(pa), list(pb), 2),
                               pa == pb)
        assert model.similarity(0, 1) == want
    elapsed = perf_counter() - t0
    _verdict(3, pairs == 65 * 65,
             "all 4225 ordered profile pairs on a 4-item catalog: "
             "sim=1 iff profiles identical, sim=0 iff unequal with no "
             f"hammock pairs, strict interior otherwise ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 4. item-pair similarity boundaries, exhaustive over small pack corpora


def _pack_stats(seq):
    members = frozenset(seq)
    score = {}
    for a_pos in range(len(seq)):
        for b_pos in range(a_pos + 1, len(seq)):
            key = (seq[a_pos], seq[b_pos])
            score[key] = score.get(key, 0.0) + 1.0 + 1.0 / (b_pos - a_pos)
    adjacent = {(seq[k], seq[k + 1]) for k in range(len(seq) - 1)}
    return members, score, adjacent


def test_acceptance_04_item_similarity_boundaries_exhaustive():
    seq4 = [p for length in range(1, 5)
            for p in permutations(range(4), length)]
    seq3 = [p for length in range(1, 4)
            for p in permutations(range(3), length)]
    assert (len(seq4), len(seq3)) == (64, 15)
    stats = {p: _pack_stats(p) for p in set(seq4) | set(seq3)}
    corpora = chain(((p,) for p in seq4), product(seq4, repeat=2),
                    product(seq3, repeat=3), product(seq3, repeat=4))
    t0 = perf_counter()
    checked = 0
    for packs in corpora:
        model = CipIModel.train(store_of_packs(packs), 60, 5)
        per_pack = [stats[p] for p in packs]
        items = sorted(set().union(*(m for m, _, _ in per_pack)))
        for a in items:
            assert model.profiles.item_counts()[a] == sum(1 for m, _, _ in per_pack if a in m)
        for a, b in permutations(items, 2):
            brute = sum(s.get((a, b), 0.0) for _, s, _ in per_pack)
            got = model.score.get(a, {}).get(b, 0) / ONE
            assert abs(got - brute) <= 1e-12
            sim = model.similarity(a, b)
            assert 0.0 <= sim <= 1.0
            assert (sim == 0.0) == (brute == 0.0)
            tight = all((a not in m and b not in m) or (a, b) in adj
                        for m, _, adj in per_pack)
            assert (sim == 1.0) == tight
        checked += 1
    elapsed = perf_counter() - t0
    _verdict(4, checked == 64 + 64 ** 2 + 15 ** 3 + 15 ** 4,
             f"{checked} pack corpora enumerated: scores match the additive "
             "definition, sim=1 iff items are adjacent in every pack "
             "containing either, sim=0 iff never consumed in order "
             f"({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 5. the training kernel's deltas vs central finite differences


def test_acceptance_05_sgns_gradient_check():
    t0 = perf_counter()
    worst = sgns_gradient_error(default_rng(55), 100)
    elapsed = perf_counter() - t0
    _verdict(5, worst < 1e-4 and elapsed < 5.0,
             f"training kernel sgns_batch: worst relative gap between its "
             f"deltas and central differences {worst:.2e} over 100 "
             f"mini-batches with shared rows and negatives (< 1e-4), "
             f"{elapsed:.2f}s (< 5 s)")


# --------------------------------------------------------------------------
# 6. embeddings separate planted co-consumption clusters


def _cluster_separation(model, group_a, group_b):
    vec = model.syn0 / np.linalg.norm(model.syn0, axis=1, keepdims=True)
    rows_a = [model.row[i] for i in group_a]
    rows_b = [model.row[i] for i in group_b]

    def mean_cos(rows_x, rows_y, skip_same):
        total, count = 0.0, 0
        for x in rows_x:
            for y in rows_y:
                if skip_same and x >= y:
                    continue
                total += float(vec[x] @ vec[y])
                count += 1
        return total / count

    intra = (mean_cos(rows_a, rows_a, True) + mean_cos(rows_b, rows_b, True)) / 2
    inter = mean_cos(rows_a, rows_b, False)
    return intra - inter


def test_acceptance_06_embedding_separation():
    packs, group_a, group_b = planted_clusters(n_items=20, n_packs=500, seed=3)
    t0 = perf_counter()
    separations = {}
    for workers in (1, 4):
        model = train(packs, TrainConfig(dim=100, window=5, negatives=5,
                                         epochs=5, workers=workers, seed=1))
        separations[workers] = _cluster_separation(model, group_a, group_b)
    elapsed = perf_counter() - t0
    ok = all(s >= 0.2 for s in separations.values()) and elapsed < 30.0
    _verdict(6, ok,
             "intra minus inter cluster cosine "
             f"{separations[1]:.3f} (1 worker) / {separations[4]:.3f} "
             f"(4 workers), both >= 0.2, {elapsed:.1f}s (< 30 s)")


# --------------------------------------------------------------------------
# 7. pack-partitioned scoring equals flat-profile scoring


def test_acceptance_07_fism_partition_invariance():
    rng = default_rng(77)
    worst = 0.0
    for _ in range(1000):
        n_users = int(rng.integers(1, 6))
        n_items = int(rng.integers(3, 15))
        k = int(rng.integers(1, 8))
        alpha = float(rng.uniform(0.0, 1.0))
        delta = int(rng.integers(1, 50))
        model = FismModel.random_init(n_users, n_items, k, alpha,
                                      seed=int(rng.integers(1, 2 ** 31)),
                                      delta=delta)
        u = int(rng.integers(n_users))
        length = int(rng.integers(1, n_items))
        order = rng.permutation(n_items)
        consumed = [int(x) for x in order[:length]]
        target = int(order[length])
        store = ProfileStore(0, 0)
        t = 0
        for item in consumed:
            t += int(rng.integers(1, 120))
            store.add_event(u, item, t)
        cips = store.get(u).partition(delta)
        got = model.score(cips, u, target)
        flat = (model.b_user[u] + model.b_item[target]
                + len(consumed) ** -alpha
                * float(model.p[consumed].sum(axis=0) @ model.q[target]))
        worst = max(worst, abs(got - flat))
    _verdict(7, worst <= 1e-12,
             "1000 random (profile, delta, model) draws: pack-partitioned "
             f"score equals flat score, worst gap {worst:.2e} (<= 1e-12)")


# --------------------------------------------------------------------------
# 8. modularity: closed form and brute-force double sum


def _brute_modularity(graph, partition):
    nodes = sorted(graph.nodes)
    idx = {v: k for k, v in enumerate(nodes)}
    adj = np.zeros((len(nodes), len(nodes)))
    for (a, b), w in graph.edges.items():
        adj[idx[a], idx[b]] += w
        adj[idx[b], idx[a]] += w
    two_w = adj.sum()
    deg = adj.sum(axis=1)
    q = 0.0
    for a in nodes:
        for b in nodes:
            if partition[a] == partition[b]:
                q += (adj[idx[a], idx[b]]
                      - deg[idx[a]] * deg[idx[b]] / two_w) / two_w
    return q


def test_acceptance_08_modularity():
    clique_a, clique_b = range(5), range(5, 10)
    edges = {}
    for group in (clique_a, clique_b):
        for a, b in permutations(group, 2):
            if a < b:
                edges[(a, b)] = 1.0
    graph = ItemGraph(edges)
    partition = {v: 0 for v in clique_a} | {v: 1 for v in clique_b}
    exact = modularity(graph, partition)
    assert exact == 0.5

    rng = default_rng(88)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 12))
        edges = {}
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.5:
                    edges[(a, b)] = float(rng.uniform(0.5, 4.0))
        if not edges:
            edges[(0, 1)] = 1.0
        graph = ItemGraph(edges)
        part = {v: int(rng.integers(3)) for v in graph.nodes}
        worst = max(worst, abs(modularity(graph, part)
                               - _brute_modularity(graph, part)))
    _verdict(8, worst <= 1e-12,
             "two equal cliques score exactly 0.5; brute-force double sum "
             f"agrees on 100 random graphs, worst gap {worst:.2e} "
             "(<= 1e-12)")


# --------------------------------------------------------------------------
# 9. desk-scale quality ordering on the 100k-event corpus


def test_acceptance_09_quality_ordering(ml_log):
    t0 = perf_counter()
    train_log, _valid_log, test_log = temporal_split(ml_log, 75_000, 5_000,
                                                     20_000)
    store = build_profiles(train_log)
    precision = {}
    precision["popularity"] = precision_at_n(
        PopularityModel.train(store), test_log, 10).precision
    precision["cip-u"] = precision_at_n(
        CipUModel.train(store, 10, 50), test_log, 10).precision
    precision["cip-i"] = precision_at_n(
        CipIModel.train(store, 60, 30), test_log, 10).precision
    embeddings = train(all_cips(store, 60),
                       TrainConfig(dim=100, window=5, negatives=5, lr=0.025,
                                   epochs=5, workers=1, seed=1))
    precision["deepcip"] = precision_at_n(
        DeepCipRecommender(embeddings, store, 60), test_log, 10).precision
    elapsed = perf_counter() - t0
    ok = (precision["deepcip"] >= precision["cip-i"]
          and precision["deepcip"] > precision["cip-u"]
          and all(precision[m] > precision["popularity"]
                  for m in ("cip-u", "cip-i", "deepcip"))
          and elapsed < 900.0)
    _verdict(9, ok,
             f"precision@10 deepcip={precision['deepcip']:.4f} >= "
             f"cip-i={precision['cip-i']:.4f}, > cip-u={precision['cip-u']:.4f}, "
             f"all > popularity={precision['popularity']:.4f}; "
             f"{elapsed:.0f}s (< 900 s)")


# --------------------------------------------------------------------------
# 10. training throughput must scale with workers, up to the cores the host
#     can give (4 workers against >= 2.0 wherever 4 cores are usable)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.mark.skipif(_usable_cores() < 2,
                    reason="worker scaling needs at least 2 usable cores")
def test_acceptance_10_worker_throughput(ml_log):
    packs = all_cips(build_profiles(ml_log), 60)
    pairs = sum(pair_count(len(p), 5) for p in packs)
    cores = _usable_cores()
    workers = min(4, cores)
    # Amdahl's law with a serial fraction of at most 1/3: 2.0 at 4 workers.
    bar = 3 * workers / (workers + 2)

    def throughput(n: int) -> float:
        cfg = TrainConfig(dim=100, window=5, negatives=5, epochs=1,
                          workers=n, seed=1)
        t0 = perf_counter()
        train(packs, cfg)
        return pairs / (perf_counter() - t0)

    # Interleaved rounds, best of each arm, so host drift hits both alike.
    thr1 = thr_w = 0.0
    for _ in range(3):
        thr1 = max(thr1, throughput(1))
        thr_w = max(thr_w, throughput(workers))
    ratio = thr_w / thr1
    _verdict(10, ratio >= bar,
             f"best-of-3 pair throughput {thr1:,.0f}/s at 1 worker, "
             f"{thr_w:,.0f}/s at {workers} workers -> x{ratio:.2f} "
             f"(>= {bar:.2f} required at {workers} workers; this host "
             f"gives {cores} usable CPU core(s))")


# --------------------------------------------------------------------------
# 11. fixed-seed determinism and save/load round trips


def _raw_recs(model, store, users, n=10):
    out = {}
    for u in users:
        out[store.user_ids[u]] = [store.item_ids[i]
                                  for i in model.recommend(u, n)]
    return out


def test_acceptance_11_determinism_and_round_trips(ml_log, tmp_path):
    small = ml_log.slice(0, 10_000)
    store = build_profiles(small)
    corpus = all_cips(store, 60)
    cfg = TrainConfig(dim=48, window=5, negatives=5, epochs=2, workers=1,
                      seed=1)
    emb_a = train(corpus, cfg)
    emb_b = train(corpus, cfg)
    assert np.array_equal(emb_a.syn0, emb_b.syn0)
    assert np.array_equal(emb_a.syn1, emb_b.syn1)
    assert emb_a.epoch_losses == emb_b.epoch_losses
    fism_a = FismModel.train(store, 60, 16, 0.5, seed=1)
    fism_b = FismModel.train(store, 60, 16, 0.5, seed=1)
    assert np.array_equal(fism_a.p, fism_b.p)
    assert np.array_equal(fism_a.q, fism_b.q)

    events_path = tmp_path / "small.events"
    dump_events(small, events_path)
    rng = default_rng(111)
    users = sorted(store.profiles)
    sampled = [int(u) for u in rng.choice(users, size=min(100, len(users)),
                                          replace=False)]
    models = {
        "cip-u": CipUModel.train(store, 10, 50),
        "cip-i": CipIModel.train(store, 60, 30),
        "deepcip": DeepCipRecommender(emb_a, store, 60),
        "fism": fism_a,
        "popularity": PopularityModel.train(store),
    }
    for kind, model in models.items():
        path = tmp_path / f"model.{kind}"
        save_model(model, path, events_path)
        loaded = load_model(path)
        before = _raw_recs(model, store, sampled)
        lstore = loaded.profiles
        ldense = {lstore.user_ids[u]: u for u in lstore.profiles}
        after = {raw: [lstore.item_ids[i]
                       for i in loaded.recommend(ldense[raw], 10)]
                 for raw in before}
        assert after == before, f"{kind} round trip changed recommendations"
    _verdict(11, True,
             "fixed-seed single-worker training is bit-identical; all five "
             f"model formats round-trip with identical top-10 lists for "
             f"{len(sampled)} sampled users")
