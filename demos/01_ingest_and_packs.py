"""Ingest a raw log, inspect profiles, and partition them into packs.

Run:  python3 demos/01_ingest_and_packs.py
"""

import tempfile
from pathlib import Path

from ciprec.ingest import build_profiles, parse_events, temporal_split
from ciprec.synthetic import generate_events, write_ml_tab


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "u.data"
        write_ml_tab(raw, generate_events(seed=11, n_users=25, n_items=80,
                                          n_events=1500, n_genres=5))
        print(f"wrote a raw tab-separated log: {raw.name}")
        print("first three lines:")
        for line in raw.read_text().splitlines()[:3]:
            print("   ", line)

        log = parse_events(raw, "ml-tab")
        print(f"\nparsed {len(log)} events, {log.num_users} users, "
              f"{log.num_items} items (dense ids, timestamp-sorted)")

        store = build_profiles(log)
        user = sorted(store.profiles)[0]
        prof = store.get(user)
        print(f"\nuser {store.user_ids[user]} consumed {len(prof)} distinct "
              "items; first ten with timestamps:")
        for item, t in list(zip(prof.items, prof.ts))[:10]:
            print(f"    item {store.item_ids[item]:>4}  at {t}")

        print("\npack partitioning: consecutive events stay in one pack "
              "while the gap is within delta")
        for delta in (30, 60, 3600):
            packs = prof.partition(delta)
            sizes = [len(p) for p in packs]
            print(f"    delta={delta:>5}s -> {len(packs):>3} packs, "
                  f"sizes {sizes[:8]}{' ...' if len(sizes) > 8 else ''}")

        train, valid, test = temporal_split(log, 1000, 200, 300)
        print(f"\ntemporal split: {len(train)}/{len(valid)}/{len(test)} "
              "events; splits share the parent's id space:")
        print(f"    train ends at t={train.ts[-1]}, test starts at "
              f"t={test.ts[0]} (strictly later)")


if __name__ == "__main__":
    main()
