"""User-based recommending from hammock pairs.

Two users are similar when they consumed the same items close together
in their own histories: each common pair within the position threshold
on BOTH sides is a "hammock pair", and similarity grows with the count.

Run:  python3 demos/02_user_neighbors.py
"""

from ciprec.cip_u import CipUModel, hammock_distance, hammock_pairs
from ciprec.ingest import ProfileStore
from ciprec.synthetic import generate_events


def profile_of(user, items):
    store = ProfileStore(0, 0)
    store.extend({user: [(item, 100 + pos) for pos, item in enumerate(items)]})
    return store.get(user)


def main() -> None:
    alice = profile_of(0, [14, 3, 20, 99, 53, 10, 25])
    bob = profile_of(1, [20, 53, 4])
    print("alice:", list(alice.items))
    print("bob:  ", list(bob.items))
    print("position distance of (20, 53): alice",
          hammock_distance(alice, 20, 53), "/ bob",
          hammock_distance(bob, 20, 53))
    for dh in (1, 2):
        print(f"hammock pairs at threshold {dh}:",
              hammock_pairs(alice, bob, dh) or "none")

    print("\nbuilding the pair store on a synthetic corpus ...")
    events = [(u, i, t) for u, i, _r, t in
              generate_events(seed=5, n_users=30, n_items=120,
                              n_events=2500, n_genres=4)]
    store = ProfileStore(0, 0)
    for u, i, t in events:
        store.add_event(u, i, t)
    model = CipUModel.train(store, delta_h=2, k=10)

    probe = sorted(store.profiles)[0]
    print(f"top neighbors of user {probe} (pair count in parentheses;"
          " counts >= 37 saturate the similarity to 1.0 in float64):")
    for v, sim in model.top_k_users(probe, 5):
        hp = model.pair_state(probe, v).hp_count
        print(f"    user {v:>3}  similarity {sim:.6f}  ({hp} hammock pairs)")
    print(f"recommendations for user {probe}:", model.recommend(probe, 8))

    print("\nincremental updates leave the store exactly as a retrain:")
    head, tail = events[:1200], events[1200:]
    inc_store = ProfileStore(0, 0)
    for u, i, t in head:
        inc_store.add_event(u, i, t)
    inc = CipUModel.train(inc_store, delta_h=2, k=10)
    batch: dict[int, list[tuple[int, int]]] = {}
    for u, i, t in tail:
        batch.setdefault(u, []).append((i, t))
    inc.observe(batch)
    same = all(inc.similarity(u, v) == model.similarity(u, v)
               for u in store.profiles for v in store.profiles if u < v)
    print("    all pair similarities equal after applying the tail batch:",
          same)


if __name__ == "__main__":
    main()
