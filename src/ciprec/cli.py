"""Command-line frontend.

Subcommands: ingest, train, update, recommend, evaluate, sweep, graph,
dump-model. Flags beat config-file values, which beat dataset defaults.
The CIPREC_THREADS environment variable caps training worker counts.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from ciprec import analysis, config, persistence
from ciprec.cip_i import CipIModel
from ciprec.cip_u import CipUModel
from ciprec.deepcip import DeepCipRecommender, TrainConfig, train as train_embeddings
from ciprec.fism import FismModel
from ciprec.ingest import (EventLog, all_cips, build_profiles, join_profiles, log_batches,
                           parse_events, temporal_split)
from ciprec.popularity import PopularityModel


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--dataset", choices=sorted(config.DATASET_DEFAULTS),
                   help="apply this dataset's default hyper-parameters")


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--path", help="raw consumption log file")
    p.add_argument("--format", dest="fmt", choices=["ml-tab", "ml-dcolon", "csv"],
                   help="raw log format")
    p.add_argument("--events", help="canonical events file (CIPREC1 events)")
    p.add_argument("--split", help="train,valid,test event counts (e.g. 75000,5000,20000)")


def _add_hyper(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dh", type=int, dest="delta_h", help="hammock distance threshold")
    p.add_argument("--delta", type=int, help="pack gap threshold, seconds")
    p.add_argument("--delta-minutes", type=int, help="pack gap threshold, minutes")
    p.add_argument("--k", type=int, help="neighborhood size")
    p.add_argument("--window", type=int, help="skip-gram window")
    p.add_argument("--top", type=int, dest="top_n", help="recommendation list size")
    p.add_argument("--dim", type=int, help="embedding/factor dimension")
    p.add_argument("--negatives", type=int, help="negative samples per pair")
    p.add_argument("--lr", type=float, help="initial learning rate")
    p.add_argument("--epochs", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float, help="profile-size normalization exponent")


def _overrides(args) -> dict:
    keys = ("delta_h", "delta", "window", "top_n", "dim", "negatives", "lr",
            "epochs", "workers", "seed", "alpha", "model")
    out = {k: getattr(args, k, None) for k in keys}
    if getattr(args, "delta_minutes", None) is not None:
        out["delta"] = args.delta_minutes * 60
    k = getattr(args, "k", None)
    if k is not None:
        out["k_users"] = k
        out["k_items"] = k
    if getattr(args, "min_weight", None) is not None:
        out["min_weight"] = args.min_weight
    if getattr(args, "hop_back", None) is not None:
        out["hop_back"] = args.hop_back
    if getattr(args, "hop_fwd", None) is not None:
        out["hop_fwd"] = args.hop_fwd
    return out


def _resolve(args) -> config.RunConfig:
    file_cfg = config.load_config_file(args.config) if args.config else None
    cfg = config.resolve(getattr(args, "dataset", None), file_cfg, _overrides(args))
    cap = os.environ.get("CIPREC_THREADS")
    if cap:
        cfg.workers = max(1, min(cfg.workers, int(cap)))
    return cfg


def _load_log(args, cfg: config.RunConfig) -> EventLog:
    if getattr(args, "events", None):
        return persistence.load_events(args.events)
    path = getattr(args, "path", None) or cfg.path
    if not path:
        raise SystemExit("need --events or --path/--format")
    fmt = getattr(args, "fmt", None) or cfg.fmt
    if not fmt:
        raise SystemExit("need --format (or --dataset) for a raw log")
    return parse_events(path, fmt)


def _split(args, cfg: config.RunConfig, log: EventLog):
    spec = getattr(args, "split", None)
    if spec:
        parts = [int(x) for x in spec.split(",")]
        if len(parts) != 3:
            raise SystemExit("--split needs train,valid,test")
        return temporal_split(log, *parts)
    if cfg.n_train is not None:
        return temporal_split(log, cfg.n_train, cfg.n_valid or 0, cfg.n_test or 0)
    return None


def _train_config(cfg: config.RunConfig) -> TrainConfig:
    return TrainConfig(dim=cfg.dim, window=cfg.window, negatives=cfg.negatives,
                       lr=cfg.lr, epochs=cfg.epochs, workers=cfg.workers,
                       seed=cfg.seed)


def _build_model(kind: str, store, cfg: config.RunConfig):
    if kind == "cip-u":
        return CipUModel.train(store, cfg.delta_h, cfg.k_users)
    if kind == "cip-i":
        return CipIModel.train(store, cfg.delta, cfg.k_items)
    if kind == "deepcip":
        corpus = all_cips(store, cfg.delta)
        emb = train_embeddings(corpus, _train_config(cfg))
        return DeepCipRecommender(emb, store, cfg.delta)
    if kind == "fism":
        return FismModel.train(store, cfg.delta, cfg.dim, cfg.alpha, cfg.seed)
    if kind == "popularity":
        return PopularityModel.train(store)
    raise SystemExit(f"unknown model kind {kind!r}")


def _events_from_profiles(store) -> EventLog:
    """Every profile event, in timestamp order, ties by user, then by
    position in the profile."""
    users = sorted(store.profiles)
    items, ts, lengths = join_profiles([store.profiles[u] for u in users])
    order = np.argsort(ts, kind="stable")       # profiles are laid out by user
    return EventLog(np.repeat(users, lengths)[order], items[order], ts[order],
                    store.user_ids, store.item_ids)


def cmd_ingest(args) -> int:
    cfg = _resolve(args)
    log = _load_log(args, cfg)
    persistence.dump_events(log, args.out)
    print(f"{len(log)} events, {log.num_users} users, {log.num_items} items "
          f"-> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    if not args.model:
        raise SystemExit("--model is required")
    log = _load_log(args, cfg)
    splits = _split(args, cfg, log)
    train_log = splits[0] if splits else log
    store = build_profiles(train_log)
    model = _build_model(args.model, store, cfg)
    persistence.save_with_events(model, args.out, train_log)
    print(f"trained {args.model} on {len(train_log)} events -> {args.out}")
    return 0


def _to_store_ids(ids: np.ndarray, raw_ids: list, store_ids: list) -> np.ndarray:
    """Dense ids of a log, whose raw ids are ``raw_ids``, as dense ids of
    a store, whose raw ids are ``store_ids``. Each raw id is looked up
    once; an unseen one is appended to ``store_ids`` in order of its
    first event."""
    index = {r: k for k, r in enumerate(store_ids)}
    present, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    mapped = np.empty(len(present), dtype=np.int64)
    for k in np.argsort(first).tolist():
        raw = raw_ids[int(present[k])]
        dense = index.get(raw)
        if dense is None:
            dense = len(store_ids)
            store_ids.append(raw)
        mapped[k] = dense
    return mapped[inverse.ravel()]


def _remap_batches(log: EventLog, store) -> dict[int, list[tuple[int, int]]]:
    """A new-events log's batches in the store's id space, extending the
    store's dictionaries for unseen raw ids."""
    users = _to_store_ids(log.users, log.user_ids, store.user_ids)
    items = _to_store_ids(log.items, log.item_ids, store.item_ids)
    store.num_users = len(store.user_ids)
    store.num_items = len(store.item_ids)
    return log_batches(EventLog(users, items, log.ts, store.user_ids, store.item_ids))


def cmd_update(args) -> int:
    model = persistence.load_model(args.model_file)
    new_log = _load_log(args, _resolve(args))
    store = model.profiles
    model.observe(_remap_batches(new_log, store))
    persistence.save_with_events(model, args.model_file, _events_from_profiles(store))
    print(f"applied {len(new_log)} events -> {args.model_file}")
    return 0


def cmd_recommend(args) -> int:
    model = persistence.load_model(args.model_file)
    store = model.profiles
    user_index = {r: k for k, r in enumerate(store.user_ids)}
    u = user_index.get(args.user, -1)
    recs = model.recommend(u, args.top)
    print(" ".join(str(store.item_ids[i]) for i in recs))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve(args)
    if not args.model:
        raise SystemExit("--model is required")
    log = _load_log(args, cfg)
    splits = _split(args, cfg, log)
    if splits is None:
        raise SystemExit("evaluate needs --split or a --dataset with defaults")
    train_log, _, test_log = splits
    if len(test_log) == 0:
        raise SystemExit("test split is empty")
    store = build_profiles(train_log)
    model = _build_model(args.model, store, cfg)
    report = analysis.precision_at_n(model, test_log, cfg.top_n,
                                     every=cfg.batch_q if args.replay else None)
    _emit_reports([report], args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    if not args.model:
        raise SystemExit("--model is required")
    grid: dict[str, list] = {}
    for spec in args.grid or []:
        if "=" not in spec:
            raise SystemExit(f"bad --grid {spec!r}, expected key=v1,v2,...")
        key, _, vals = spec.partition("=")
        if key not in vars(cfg):
            raise SystemExit(f"unknown grid key {key!r}")
        parsed = []
        for v in vals.split(","):
            try:
                parsed.append(int(v))
            except ValueError:
                parsed.append(float(v))
        grid[key] = parsed
    if not grid:
        raise SystemExit("sweep needs at least one --grid key=v1,v2")
    log = _load_log(args, cfg)
    splits = _split(args, cfg, log)
    if splits is None:
        raise SystemExit("sweep needs --split or a --dataset with defaults")
    train_log, valid_log, _ = splits
    if len(valid_log) == 0:
        raise SystemExit("validation split is empty")
    store = build_profiles(train_log)

    def build(point: dict):
        merged = config.resolve(None, vars(cfg).copy(), point)
        merged.model = args.model
        return _build_model(args.model, store, merged)

    reports = analysis.sweep(build, grid, valid_log, cfg.top_n)
    _emit_reports(reports, args.out)
    return 0


def _emit_reports(reports, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            analysis.write_reports(reports, fh)
    else:
        analysis.write_reports(reports, sys.stdout)


def cmd_graph(args) -> int:
    cfg = _resolve(args)
    log = _load_log(args, cfg)
    splits = _split(args, cfg, log)
    store = build_profiles(splits[0] if splits else log)
    graph = analysis.build_item_graph(store, cfg.hop_back, cfg.hop_fwd,
                                      cfg.min_weight)
    analysis.export_edge_list(graph, args.out)
    print(f"{len(graph)} edges over {len(graph.nodes)} items -> {args.out}")
    if args.graphml:
        analysis.export_graphml(graph, args.graphml)
    if args.partition:
        part = analysis.load_partition(args.partition)
        print(f"modularity {analysis.modularity(graph, part):.6f}")
    return 0


def cmd_dump_model(args) -> int:
    model = persistence.load_model(args.model_file)
    store = model.profiles
    print(f"kind: {model.kind}")
    print(f"params: {getattr(model, 'params', {})}")
    print(f"users: {store.num_users} items: {store.num_items} "
          f"profiles: {len(store)}")
    if args.out:
        persistence.save_with_events(model, args.out, _events_from_profiles(store))
        print(f"rewritten -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ciprec",
                                 description="pack-based incremental recommenders")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a raw log into a canonical events file")
    _add_common(p)
    _add_input(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model and persist it")
    _add_common(p)
    _add_input(p)
    _add_hyper(p)
    p.add_argument("--model", choices=config.MODEL_KINDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("update", help="apply one batch of new events to a model")
    _add_common(p)
    _add_input(p)
    p.add_argument("--model-file", required=True)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("recommend", help="top-N items for one user")
    p.add_argument("--model-file", required=True)
    p.add_argument("--user", type=int, required=True, help="raw user id")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("evaluate", help="temporal-replay precision on the test split")
    _add_common(p)
    _add_input(p)
    _add_hyper(p)
    p.add_argument("--model", choices=config.MODEL_KINDS)
    p.add_argument("--replay", action="store_true",
                   help="fold the test split into the model in windows of "
                        "batch_q events (a config-file key, default 1000)")
    p.add_argument("--out", help="write the report CSV here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid-search hyper-parameters on the validation split")
    _add_common(p)
    _add_input(p)
    _add_hyper(p)
    p.add_argument("--model", choices=config.MODEL_KINDS)
    p.add_argument("--grid", action="append", help="key=v1,v2,... (repeatable)")
    p.add_argument("--out", help="write the report CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("graph", help="export the co-consumption item graph")
    _add_common(p)
    _add_input(p)
    p.add_argument("--hop-back", type=int, dest="hop_back")
    p.add_argument("--hop-fwd", type=int, dest="hop_fwd")
    p.add_argument("--min-weight", type=float, dest="min_weight")
    p.add_argument("--out", required=True)
    p.add_argument("--graphml", help="also write GraphML here")
    p.add_argument("--partition", help="node,community CSV to score")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("dump-model", help="print a model file's summary")
    p.add_argument("--model-file", required=True)
    p.add_argument("--out", help="re-serialize the model here")
    p.set_defaults(func=cmd_dump_model)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
