"""Temporal-replay evaluation: split a log chronologically, train every
recommender family on the past, and score precision@10 on the future.

Also shows replay mode (folding test events into the model in windows
of 50 as they stream by) and a small parameter sweep rendered as CSV.
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from ciprec.analysis import precision_at_n, sweep, write_reports
from ciprec.cip_i import CipIModel
from ciprec.cip_u import CipUModel
from ciprec.deepcip import DeepCipRecommender, TrainConfig, train
from ciprec.ingest import all_cips, build_profiles, parse_events, temporal_split
from ciprec.popularity import PopularityModel
from ciprec.synthetic import generate_events, write_ml_tab

DELTA = 60


def make_log(tmp: str):
    path = Path(tmp) / "events.tab"
    write_ml_tab(path, generate_events(seed=31, n_users=150, n_items=400,
                                       n_events=20000, n_genres=6))
    return parse_events(path, "ml-tab")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        log = make_log(tmp)
    train_log, valid_log, test_log = temporal_split(log, 14000, 2000, 4000)
    print(f"{len(log)} events -> train {len(train_log)} / "
          f"valid {len(valid_log)} / test {len(test_log)}")

    store = build_profiles(train_log)
    models = [
        PopularityModel.train(store),
        CipUModel.train(store, delta_h=10, k=50),
        CipIModel.train(store, delta=DELTA, k=30),
        DeepCipRecommender(
            train(all_cips(store, DELTA),
                  TrainConfig(dim=48, window=5, negatives=5, epochs=3,
                              workers=1, seed=1)),
            store, DELTA),
    ]

    print("\nfrozen models, precision@10 on the held-out tail:")
    print(f"    {'model':<12} {'hits':>5} {'events':>7} {'precision':>10} "
          f"{'runtime':>8}")
    for model in models:
        r = precision_at_n(model, test_log, 10)
        print(f"    {r.model:<12} {r.hits:>5} {r.events:>7} "
              f"{r.precision:>10.5f} {r.runtime_s:>7.2f}s")

    # replay mode: the same item-neighbor model, but test events are
    # folded in every 50 events, as a live service would ingest its
    # stream, so later recommendations see them
    frozen = precision_at_n(CipIModel.train(build_profiles(train_log),
                                            delta=DELTA, k=30), test_log, 10)
    replayed = precision_at_n(CipIModel.train(build_profiles(train_log),
                                              delta=DELTA, k=30), test_log, 10,
                              every=50)
    print(f"\ncip-i frozen vs replayed over the same tail: "
          f"{frozen.precision:.5f} -> {replayed.precision:.5f}")

    # parameter sweep on the validation slice, written as the same CSV
    # the command-line sweep emits
    grid = {"delta_h": [5, 10], "k": [20, 50]}
    reports = sweep(lambda p: CipUModel.train(store, **p), grid,
                    valid_log, 10)
    print("\nuser-model sweep on the validation slice:")
    write_reports(reports, sys.stdout)


if __name__ == "__main__":
    main()
