"""The benchmark's three workloads, driven through ciprec's public API.

* ``batch-1m``: the offline build at ML-1M shape. Parse, split, one
  profile store per model, train cip-i, fism and popularity, build and
  export the item graph, persist every model, then a frozen
  precision@10 evaluation of the test split.
* ``replay-100k``: read-heavy. Train cip-u, cip-i and deepcip at ML-100K
  shape, persist them, then replay the test split through
  ``precision_at_n`` with one ``recommend`` per event, folding the
  buffered events in every ``batch_q`` (1000) events.
* ``stream-100k``: write-heavy. The same corpus and models; the test
  split is folded in 10-event batches, each followed by one
  ``recommend`` for the batch's last user (read-your-write).

Every workload is one closed-loop caller on one thread. The evaluation
phase gives each model kind an equal share of ``--seconds`` (what a kind
that reaches the end of the test split leaves goes to the others), taken
in short turns so that each share spans the whole phase, and every kind
processes at least the workload's first ``window`` test events.
precision@10 and the pooled recommend percentiles are taken over those
events, so every run scores and pools the same calls, whatever each
kind's speed. Set-up runs ``setups`` times; ``setup_s`` is the median.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from ciprec import config
from ciprec.analysis import build_item_graph, export_edge_list, precision_at_n
from ciprec.cip_i import CipIModel
from ciprec.cip_u import CipUModel, hammock_pairs
from ciprec.deepcip import (DeepCipRecommender, TrainConfig, pair_count,
                            train as train_embeddings)
from ciprec.fism import FismModel
from ciprec.ingest import (ProfileStore, all_cips, build_profiles, parse_events,
                           temporal_split)
from ciprec.persistence import dump_events, load_model, save_model
from ciprec.popularity import PopularityModel

from spans import percentile, summarize

N = 10              # list length, config.DATASET_DEFAULTS top_n
EVAL_SLICE = 100    # test events per precision_at_n call
EVAL_FOLD = 1000    # replay folds buffered events in this often (batch_q)
STREAM_BATCH = 10   # events per stream batch
TURN_S = 0.1        # evaluation time a kind gets before the next kind
SAMPLE_USERS = 20   # users whose lists are compared after load / retrain
SAMPLE_ITEMS = 20   # items whose similarities are compared after retrain
SAMPLE_ROWS = 10    # cip-u users whose whole pair row is recounted

MODULE = {"cip-u": "cip_u", "cip-i": "cip_i", "deepcip": "deepcip",
          "fism": "fism", "popularity": "popularity"}

# workload -> dataset defaults, model kinds, evaluation mode, the test
# events every kind processes, and how often set-up runs
WORKLOADS = {
    "batch-1m": dict(dataset="ml-1m", kinds=("cip-i", "fism", "popularity"),
                     mode="frozen", window=5000, setups=2),
    "replay-100k": dict(dataset="ml-100k", kinds=("cip-u", "cip-i", "deepcip"),
                        mode="replay", window=1000, setups=1),
    "stream-100k": dict(dataset="ml-100k", kinds=("cip-u", "cip-i", "deepcip"),
                        mode="stream", window=1000, setups=1),
}


def update(model, batches: dict[int, list[tuple[int, int]]]) -> None:
    """Fold per-user ``(item, ts)`` batches into a model: ``observe`` when
    the kind has it, otherwise its own update method."""
    for name in ("observe", "apply_batch", "apply_events"):
        fn = getattr(model, name, None)
        if fn is not None:
            fn(batches)
            return
    raise TypeError(f"model kind {model.kind!r} has no update method")


def _train(kind: str, store: ProfileStore, cfg: config.RunConfig):
    if kind == "cip-u":
        return CipUModel.train(store, cfg.delta_h, cfg.k_users)
    if kind == "cip-i":
        return CipIModel.train(store, cfg.delta, cfg.k_items)
    if kind == "fism":
        return FismModel.train(store, cfg.delta, cfg.dim, cfg.alpha, cfg.seed)
    if kind == "popularity":
        return PopularityModel.train(store)
    raise ValueError(f"no trainer for {kind!r}")


def _deepcip_config(cfg: config.RunConfig) -> TrainConfig:
    # one epoch keeps a run short; the per-pair rate is a layer metric
    return TrainConfig(dim=cfg.dim, window=cfg.window, negatives=cfg.negatives,
                       lr=cfg.lr, epochs=1, workers=1, seed=cfg.seed)


def _copy_store(store: ProfileStore) -> ProfileStore:
    fresh = ProfileStore(store.num_users, store.num_items, store.user_ids,
                         store.item_ids)
    for u, prof in store.profiles.items():
        for item, t in zip(prof.items, prof.ts):
            fresh.add_event(u, item, t)
    return fresh


class Run:
    """One workload run: the tracer, measured values and output checks."""

    def __init__(self, tracer, seed: int, seconds: float, work: Path):
        self.tr = tracer
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.work = work
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_s = 0.0
        self.latency_ms: dict[str, list[float]] = {}
        # calls each kind made on the workload's first ``window`` test events
        self.window_calls: dict[str, int] = {}
        self.short: dict[str, int] = {}
        self.req = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def sample(self, population, k: int) -> list:
        population = sorted(population)
        k = min(k, len(population))
        return [population[i] for i in
                sorted(self.rng.choice(len(population), size=k, replace=False))]

    def recommend(self, kind: str, model, u: int, n: int = N) -> list[int]:
        """One timed ``recommend``; its output is checked after the clock
        stops: at most n distinct items, none already consumed."""
        t0 = perf_counter()
        recs = self.tr.call(f"{MODULE[kind]}.recommend", model.recommend, u, n,
                            req=self.req)
        t1 = perf_counter()
        self.latency_ms.setdefault(kind, []).append((t1 - t0) * 1e3)
        prof = model.profiles.get(u)
        owned = prof.pos if prof is not None else {}
        self.check(len(recs) <= n and len(set(recs)) == len(recs)
                   and not any(i in owned for i in recs),
                   f"{kind}: invalid list for user {u}: {recs}")
        if len(recs) < n:
            self.short[kind] = self.short.get(kind, 0) + 1
        self.check_s += perf_counter() - t1
        return recs

    def update(self, kind: str, model, batches) -> None:
        self.tr.call(f"{MODULE[kind]}.update", update, model, batches, req=self.req)

    def close_window(self, kind: str) -> None:
        self.window_calls[kind] = len(self.latency_ms.get(kind, []))


class _Timed:
    """What ``precision_at_n`` sees: the model, with every recommend
    timed and checked; one request id per call."""

    def __init__(self, run: Run, kind: str, model):
        self.run = run
        self.kind = kind
        self.model = model
        self.params = model.params

    def recommend(self, u: int, n: int) -> list[int]:
        self.run.req += 1
        return self.run.recommend(self.kind, self.model, u, n)


class _Fold:
    """``on_event`` hook of the replay: buffer test events and fold them
    in every ``every`` events, as ``ciprec evaluate --replay`` does."""

    def __init__(self, run: Run, kind: str, model, every: int):
        self.run, self.kind, self.model, self.every = run, kind, model, every
        self.buffer: dict[int, list[tuple[int, int]]] = {}
        self.seen = 0

    def __call__(self, u: int, i: int, t: int) -> None:
        self.buffer.setdefault(u, []).append((i, t))
        self.seen += 1
        if self.seen % self.every == 0:
            self.flush()

    def flush(self) -> None:
        if self.buffer:
            self.run.update(self.kind, self.model, self.buffer)
            self.buffer = {}


# ---------------------------------------------------------------- phases

def setup(run: Run, corpus: Path, fmt: str, split, spec: dict,
          cfg: config.RunConfig):
    """Log on disk -> every model (and at 1M the item graph) ready.
    Returns the logs, the models and the set-up's wall time."""
    tr = run.tr
    t0 = perf_counter()
    log = tr.call("ingest.parse", parse_events, corpus, fmt)
    train_log, _, test_log = temporal_split(log, *split)
    models = {}
    corpora = {}
    for kind in spec["kinds"]:
        store = tr.call("ingest.build_profiles", build_profiles, train_log)
        if kind == "deepcip":
            corpora[kind] = tr.call("ingest.partition", all_cips, store, cfg.delta)
            emb = tr.call("deepcip.train", train_embeddings, corpora[kind],
                          _deepcip_config(cfg))
            models[kind] = DeepCipRecommender(emb, store, cfg.delta)
        else:
            models[kind] = tr.call(f"{MODULE[kind]}.train", _train, kind, store, cfg)
    graph = None
    if spec["mode"] == "frozen":
        graph = tr.call("analysis.item_graph", build_item_graph,
                        models["popularity"].profiles, cfg.hop_back, cfg.hop_fwd,
                        cfg.min_weight)
        tr.call("analysis.export", export_edge_list, graph, run.work / "items.tsv")
    setup_s = perf_counter() - t0

    # layer counts, outside the timed set-up
    run.put("ingest.events", len(log), "count")
    if tr.enabled:
        store = next(iter(models.values())).profiles
        run.put("ingest.packs", sum(len(p.cip_boundaries(cfg.delta)) for p in store),
                "count")
        ci = models["cip-i"]
        run.put("cip_i.score_entries", sum(len(row) for row in ci.score.values()),
                "count")
        if "deepcip" in models:
            emb = models["deepcip"].model
            run.put("deepcip.train_pairs",
                    sum(pair_count(len(c), cfg.window) for c in corpora["deepcip"]),
                    "count")
            run.put("deepcip.final_loss", emb.epoch_losses[-1], "nats")
            run.put("deepcip.vocab", len(emb), "count")
        if graph is not None:
            run.put("analysis.item_graph_edges", len(graph), "count")
    return train_log, test_log, models, setup_s


def persist(run: Run, train_log, models: dict) -> None:
    """dump_events, then save and load each model; the loaded model must
    give the same top-10 lists (in raw ids) for sampled users."""
    tr = run.tr
    events = run.work / "train.events"
    t0 = perf_counter()
    tr.call("persistence.dump_events", dump_events, train_log, events)
    persist_s = perf_counter() - t0
    if tr.enabled:
        run.put("persistence.events_bytes", events.stat().st_size, "bytes")
    for kind, model in models.items():
        path = run.work / f"{kind}.model"
        t0 = perf_counter()
        tr.call(f"persistence.save.{kind}", save_model, model, path, events)
        loaded = tr.call(f"persistence.load.{kind}", load_model, path)
        persist_s += perf_counter() - t0
        if tr.enabled:
            run.put(f"persistence.model_bytes.{kind}", path.stat().st_size, "bytes")
        src, dst = model.profiles, loaded.profiles
        index = {raw: k for k, raw in enumerate(dst.user_ids)}
        for u in run.sample(src.profiles, SAMPLE_USERS):
            before = [src.item_ids[i] for i in model.recommend(u, N)]
            after = [dst.item_ids[i] for i in
                     loaded.recommend(index[src.user_ids[u]], N)]
            run.check(before == after, f"{kind}: user {src.user_ids[u]} lists "
                      f"differ after save/load: {before} vs {after}")
    run.put("persist_s", persist_s, "s")


def _stream_steps(run: Run, kind: str, model, test_log, window: int):
    """One step: fold the next 10 test events in, then read the last
    event's user."""
    users, items, ts = test_log.users, test_log.items, test_log.ts
    for lo in range(0, len(test_log), STREAM_BATCH):
        hi = min(lo + STREAM_BATCH, len(test_log))
        batches: dict[int, list[tuple[int, int]]] = {}
        for k in range(lo, hi):
            batches.setdefault(int(users[k]), []).append((int(items[k]), int(ts[k])))
        run.req += 1
        run.update(kind, model, batches)
        run.recommend(kind, model, int(users[hi - 1]))
        if lo < min(window, len(test_log)) <= hi:
            run.close_window(kind)
        yield hi - lo


def _replay_steps(run: Run, kind: str, model, test_log, window: int,
                  fold_every: int | None):
    """One step: ``precision_at_n`` over the next slice of test events,
    folding them in every ``fold_every`` events (frozen when None).
    A frozen model's lists are cached within each slice's call only, so
    the work per event does not grow with how far a run gets. Records
    precision@10 over the first ``window`` events."""
    timed = _Timed(run, kind, model)
    fold = _Fold(run, kind, model, fold_every) if fold_every else None
    hits = 0
    for lo in range(0, len(test_log), EVAL_SLICE):
        part = test_log.slice(lo, min(lo + EVAL_SLICE, len(test_log)))
        report = run.tr.call("analysis.eval", precision_at_n, timed, part, N,
                             on_event=fold)
        if lo < window:
            hits += report.hits
            if lo + len(part) >= min(window, len(test_log)):
                run.put(f"precision_at_10.{kind}", hits / ((lo + len(part)) * N),
                        "ratio")
                run.close_window(kind)
        yield len(part)
    if fold is not None:
        fold.flush()


def evaluate(run: Run, models: dict, test_log, mode: str, window: int) -> None:
    """Closed-loop evaluation, one kind at a time in turns of about
    TURN_S, so every kind's share of ``run.seconds`` spans the whole
    phase. A kind stops when its share is spent and it has processed
    ``window`` test events, or at the end of the test split; what a kind
    leaves of its share is shared by the kinds still running."""
    steps = {}
    for kind, model in models.items():
        if mode == "stream":
            steps[kind] = _stream_steps(run, kind, model, test_log, window)
        else:
            steps[kind] = _replay_steps(run, kind, model, test_log, window,
                                        EVAL_FOLD if mode == "replay" else None)
    spent = dict.fromkeys(models, 0.0)
    done = dict.fromkeys(models, 0)
    while steps:
        share = (run.seconds - sum(spent[k] for k in models if k not in steps)) / len(steps)
        for kind in list(steps):
            t0 = perf_counter()
            check0 = run.check_s
            finished = False
            while perf_counter() - t0 < TURN_S:
                n = next(steps[kind], None)
                if n is None:
                    finished = True
                    break
                done[kind] += n
            spent[kind] += perf_counter() - t0 - (run.check_s - check0)
            if finished or (spent[kind] >= share and done[kind] >= window):
                del steps[kind]
    for kind in models:
        run.put(f"events_per_s.{kind}", done[kind] / spent[kind], "1/s")
        run.put(f"events.{kind}", done[kind], "count")


def check_retrain(run: Run, models: dict, cfg: config.RunConfig) -> None:
    """Incremental equals retrain on the final profiles. cip-u: every
    pair count of sampled users equals the from-scratch ``hammock_pairs``
    count. cip-i: sampled similarities and top-10 lists equal those of a
    model trained from scratch."""
    cu = models["cip-u"]
    profiles = cu.profiles.profiles
    for u in run.sample(profiles, SAMPLE_ROWS):
        pu = profiles[u]
        bad = []
        for v, pv in profiles.items():
            if v != u:
                state = cu.pair_state(u, v)
                hp = len(hammock_pairs(pu, pv, cfg.delta_h))
                if state.hp_count != hp or state.profiles_equal != (pu.items == pv.items):
                    bad.append((v, state.hp_count, hp))
        run.check(not bad, f"cip-u: user {u} (v, hp, retrain hp) mismatches {bad[:3]}")

    ci = models["cip-i"]
    fresh_i = CipIModel.train(_copy_store(ci.profiles), cfg.delta, cfg.k_items)
    for i in run.sample(ci.score, SAMPLE_ITEMS):
        others = [j for j, _ in ci.top_k(i)[:5]]
        others += run.sample(range(ci.profiles.num_items), 5)
        for j in others:
            a, b = ci.similarity(i, j), fresh_i.similarity(i, j)
            # the two stores add the same terms in another order
            run.check(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12),
                      f"cip-i: similarity({i}, {j}) {a!r} vs retrain {b!r}")
    for u in run.sample(ci.profiles.profiles, SAMPLE_USERS):
        run.check(ci.recommend(u, N) == fresh_i.recommend(u, N),
                  f"cip-i: user {u} list differs from retrain")


def run_workload(run: Run, name: str, corpus: Path, fmt: str, split) -> None:
    spec = WORKLOADS[name]
    cfg = config.resolve(spec["dataset"])
    # each timed phase starts with a clean heap, so a collection that an
    # earlier phase's garbage makes due does not land in it. Only the
    # last set-up is traced, so layer times are those of one set-up.
    traced = run.tr.enabled
    times = []
    for k in range(spec["setups"]):
        models = None
        gc.collect()
        run.tr.enabled = traced and k == spec["setups"] - 1
        train_log, test_log, models, setup_s = setup(run, corpus, fmt, split, spec, cfg)
        times.append(setup_s)
    run.put("setup_s", statistics.median(times), "s")
    gc.collect()
    persist(run, train_log, models)
    if spec["mode"] == "stream":
        # the stream scores no lists; cip-i's frozen precision@10 over the
        # test split shows a change to which items it recommends
        run.put("precision_at_10.cip-i",
                precision_at_n(models["cip-i"], test_log, N).precision, "ratio")
    gc.collect()
    evaluate(run, models, test_log, spec["mode"], spec["window"])
    run.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB")
    if spec["mode"] != "frozen":
        check_retrain(run, models, cfg)
    _summarize(run, spec)


def _summarize(run: Run, spec: dict) -> None:
    kinds = spec["kinds"]
    run.put("events_per_s",
            1.0 / sum(1.0 / run.metrics[f"events_per_s.{k}"][0] for k in kinds), "1/s")
    pooled = [ms for kind in kinds
              for ms in run.latency_ms.get(kind, [])[:run.window_calls[kind]]]
    run.put("recommend_calls", len(pooled), "count")
    run.put("recommend_p50_ms", percentile(pooled, 50), "ms")
    run.put("recommend_p99_ms", percentile(pooled, 99), "ms")
    run.put("error_rate", run.failed / max(1, run.attempted), "ratio")
    for kind in kinds:
        calls = run.latency_ms.get(kind, [])
        run.put(f"recommend_calls.{kind}", len(calls), "count")
        run.put(f"recommend_p50_ms.{kind}", percentile(calls, 50), "ms")
        run.put(f"recommend_p99_ms.{kind}", percentile(calls, 99), "ms")
        run.put(f"{MODULE[kind]}.short_list_rate",
                run.short.get(kind, 0) / max(1, len(calls)), "ratio")
    if not run.tr.enabled:
        return
    for name, s in summarize(run.tr.spans).items():
        module, op, *kind = name.split(".", 2)
        suffix = f".{kind[0]}" if kind else ""
        run.put(f"{module}.{op}_s{suffix}", s["s"], "s")
        if op in ("recommend", "update"):
            run.put(f"{module}.{op}_calls", s["calls"], "count")
            run.put(f"{module}.{op}_p50_ms", percentile(s["ms"], 50), "ms")
            run.put(f"{module}.{op}_p99_ms", percentile(s["ms"], 99), "ms")
        if name == "analysis.eval":
            run.put("analysis.eval_self_s", s["self_s"], "s")
    if "deepcip.train_s" in run.metrics:
        run.put("deepcip.train_pairs_per_s", run.metrics["deepcip.train_pairs"][0]
                / run.metrics["deepcip.train_s"][0], "1/s")
