"""Item-based recommending from within-pack co-consumption.

Every ordered pair inside one pack adds 1 + 1/distance to a sparse
directed score store, kept as exact integers in units of ONE = 2**40;
similarity normalizes by how often either item appears. New events
extend each user's open pack in place, and integer sums do not depend on
the order of additions, so streaming equals a retrain bit for bit.

Run:  python3 demos/03_item_neighbors.py
"""

from ciprec.cip_i import ONE, CipIModel
from ciprec.ingest import ProfileStore
from ciprec.synthetic import generate_events


def main() -> None:
    print("one pack [0, 1, 2] scores (0, 1) and (1, 2) as 1 + 1/1 = 2.0,")
    print("and the two-hop pair (0, 2) as 1 + 1/2 = 1.5:")
    model = CipIModel(delta=60, k=5)
    model.observe({0: [(0, 100), (1, 110), (2, 120)]})   # one user, one pack
    for pair in ((0, 1), (1, 2), (0, 2)):
        print(f"    score{pair} / ONE = {model.score[pair[0]][pair[1]] / ONE}")
    print("    sim(0, 1) =", model.similarity(0, 1),
          "(score 2.0 over 2 * max cardinality 1)")

    print("\ntraining on a synthetic corpus and asking for successors ...")
    store = ProfileStore(0, 0)
    for u, i, _r, t in generate_events(seed=9, n_users=40, n_items=90,
                                       n_events=3000, n_genres=6):
        store.add_event(u, i, t)
    trained = CipIModel.train(store, delta=60, k=10)
    probe = trained.profiles.get(sorted(store.profiles)[0]).items[0]
    print(f"items most often consumed right after item {probe}:")
    for j, sim in trained.top_k(probe, 5):
        print(f"    item {j:>3}  similarity {sim:.4f}")

    user = sorted(store.profiles)[0]
    print(f"recommendations for user {user}:", trained.recommend(user, 8))

    print("\nstreaming the same corpus in small batches gives the "
          "identical store:")
    streamed = CipIModel(delta=60, k=10)
    events = [(u, i, t) for u, i, _r, t in
              generate_events(seed=9, n_users=40, n_items=90,
                              n_events=3000, n_genres=6)]
    for lo in range(0, len(events), 250):
        batch: dict[int, list[tuple[int, int]]] = {}
        for u, i, t in events[lo:lo + 250]:
            batch.setdefault(u, []).append((i, t))
        streamed.observe(batch)
    worst = max(abs(streamed.score[i][j] - trained.score[i][j])
                for i in trained.score for j in trained.score[i])
    print("    same pairs scored:",
          {i: set(r) for i, r in streamed.score.items()}
          == {i: set(r) for i, r in trained.score.items()})
    print(f"    largest score difference: {worst} "
          "(0: exact integer sums, whatever the batches)")
    # an item's cardinality is the number of profiles holding it
    print("    cardinalities equal:", streamed.profiles.item_counts().tolist()
          == trained.profiles.item_counts().tolist())


if __name__ == "__main__":
    main()
