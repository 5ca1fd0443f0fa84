"""Factor-model scoring over packed profiles.

The scorer ranks an unconsumed item by user bias + item bias + a
normalized dot product between the item's factors and the sum of the
profile's factors. The profile enters as packs, but the score on packs
equals the score on the flat profile exactly, whatever the pack split.

Run:  python3 demos/05_factor_scoring.py
"""

import numpy as np

from ciprec.fism import FismModel
from ciprec.ingest import ProfileStore
from ciprec.synthetic import generate_events


def main() -> None:
    model = FismModel.random_init(num_users=5, num_items=30, k=8,
                                  alpha=0.5, seed=42, delta=60)
    one_user = ProfileStore(0, 0)
    # 40s gaps -> one pack
    one_user.extend({0: [(item, 100 + pos * 40)
                         for pos, item in enumerate([3, 11, 7, 19, 2])]})
    profile = one_user.get(0)
    target = 25

    items = list(profile.items)
    one_pack = profile.partition(60)
    many_packs = profile.partition(10)            # every event its own pack
    print(f"profile {items} partitions into "
          f"{len(one_pack)} pack at delta=60 and "
          f"{len(many_packs)} packs at delta=10")
    s1 = model.score(one_pack, 0, target)
    s2 = model.score(many_packs, 0, target)
    print(f"score(item {target}) via 1 pack:  {s1:.12f}")
    print(f"score(item {target}) via 5 packs: {s2:.12f}")
    print("identical:", s1 == s2)

    flat = (model.b_user[0] + model.b_item[target]
            + len(items) ** -0.5
            * float(model.p[items].sum(axis=0) @ model.q[target]))
    print(f"flat-profile formula:             {flat:.12f} "
          f"(gap {abs(s1 - flat):.1e})")

    print("\nconsumed items are refused as scoring targets:")
    try:
        model.score(one_pack, 0, 11)
    except ValueError as exc:
        print("    ValueError:", exc)

    print("\nan empty profile scores as bias only, and recommend falls "
          "back to popularity:")
    print(f"    score for a fresh user = b_user + b_item = "
          f"{model.b_user[1] + model.b_item[4]:.6f} "
          f"(= {model.score([], 1, 4):.6f})")

    store = ProfileStore(0, 0)
    for u, i, _r, t in generate_events(seed=13, n_users=20, n_items=120,
                                       n_events=800, n_genres=4):
        store.add_event(u, i, t)
    trained = FismModel.train(store, delta=60, k=8, alpha=0.5, seed=1)
    user = sorted(store.profiles)[0]
    print(f"\ntop 6 for user {user} from trained factors:",
          trained.recommend(user, 6))


if __name__ == "__main__":
    main()
