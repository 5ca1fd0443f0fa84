"""Fixed-seed outputs, hashed: the cip-i, cip-u and deepcip top-10 lists
of every 7th user, the cip-i scores and the deepcip embeddings and epoch
losses to the bit, deepcip's warm start (``observe``) likewise, and the
exported item-graph edge list of one seeded corpus.

The digests were recorded with the code as it stood before the shared
pair enumerator (``ciprec.ingest.pair_positions``) replaced each
model's own pair loops. A change that reorders any list or edge, or
rounds any score differently, fails here; if the change is intended,
record the new digests and say why. The deepcip digests were recorded
with the code as it stood before training and the gradient checks shared
one batched SGNS kernel. The cip-i digests were recorded again when cip-i
scores became exact integer sums in fixed point: the scores digest hashes
those integers, and the lists of this corpus kept their digest. The
deepcip ``observe`` digests were recorded with the code as it stood
before deepcip trained on pack arrays instead of lists of packs.
"""

import hashlib

import pytest

from ciprec.analysis import build_item_graph, export_edge_list
from ciprec.cip_i import CipIModel
from ciprec.cip_u import CipUModel
from ciprec.deepcip import DeepCipRecommender, TrainConfig, train
from ciprec.ingest import all_cips
from ciprec.synthetic import generate_events

from helpers import batches_from, store_from

CIP_I_LISTS = "4a8bfb6f13df02231d927318b187ea5403d7473e87f0b2b186d7a122d4be02e1"
CIP_I_SCORES = "a5f44bfe610d05af71129082fa4a6c41048c87f7d7235ee102754f0a44e515f5"
CIP_U_LISTS = "c43ace23e310438c830cc60501630896db8e98236ede0914ee8f6b2f7f8b3df3"
DEEPCIP_EMBEDDINGS = "e3b59139a72d435ead1157396a1b58c06c18e4b85725e00a0a2fa3a78a17fde1"
DEEPCIP_LISTS = "3f9e4f5d34c742ff9e29ea3edbd6ddbd117be81401a1b90b33752455300febb3"
DEEPCIP_OBSERVE_EMBEDDINGS = "07a686543701fd6e2d6f8ff0e042d019699e01a1a593e35446f811d810a03d89"
DEEPCIP_OBSERVE_LISTS = "92e8e4b2c81b760a09f82a0f376db05977a81d6cb0312d05d7d7d756793c5037"
EDGE_LIST = "bb377b17cba1eebfe7793e5e8ceb4672056ed26a1b30f5855e70c84319679565"


def _digest(data) -> str:
    if not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def events():
    rows = generate_events(seed=21, n_users=300, n_items=600, n_events=20_000)
    return [(u, i, t) for u, i, _, t in rows]


@pytest.fixture(scope="module")
def store(events):
    return store_from(events)


def _lists(model, store) -> str:
    return _digest([model.recommend(u, 10) for u in sorted(store.profiles)[::7]])


def cip_i_digests(store) -> tuple[str, str]:
    # k = 10 keeps the tallied neighbour lists short enough that a
    # change in the scores shows in the lists
    model = CipIModel.train(store, 60, 10)
    scores = sorted((i, j, s) for i, row in model.score.items() for j, s in row.items())
    return _lists(model, store), _digest(scores)


def cip_u_digest(store) -> str:
    return _lists(CipUModel.train(store, 10, 50), store)


def deepcip_digests(store) -> tuple[str, str]:
    cfg = TrainConfig(dim=16, window=5, negatives=5, epochs=2, workers=1, seed=21)
    emb = train(all_cips(store, 60), cfg)
    weights = emb.syn0.tobytes() + emb.syn1.tobytes() + repr(emb.epoch_losses).encode()
    return _digest(weights), _lists(DeepCipRecommender(emb, store, 60), store)


def deepcip_observe_digests(events) -> tuple[str, str]:
    # train on the first 15,000 events, then fold 12 windows of 250 in
    store = store_from(events[:15_000])
    cfg = TrainConfig(dim=16, window=5, negatives=5, epochs=2, workers=1, seed=21)
    rec = DeepCipRecommender(train(all_cips(store, 60), cfg), store, 60)
    for lo in range(15_000, 18_000, 250):
        rec.observe(batches_from(events[lo:lo + 250]))
    emb = rec.model
    weights = (emb.syn0.tobytes() + emb.syn1.tobytes() + emb.item_ids.tobytes()
               + repr(emb.epoch_losses).encode())
    return _digest(weights), _lists(rec, store)


def edge_list_digest(store, path) -> str:
    export_edge_list(build_item_graph(store, 2, 3, 5), path)
    return _digest(path.read_bytes())


def test_cip_i_lists_and_scores_are_unchanged(store):
    assert cip_i_digests(store) == (CIP_I_LISTS, CIP_I_SCORES)


def test_cip_u_lists_are_unchanged(store):
    assert cip_u_digest(store) == CIP_U_LISTS


def test_deepcip_embeddings_and_lists_are_unchanged(store):
    assert deepcip_digests(store) == (DEEPCIP_EMBEDDINGS, DEEPCIP_LISTS)


def test_deepcip_observe_embeddings_and_lists_are_unchanged(events):
    assert deepcip_observe_digests(events) == (DEEPCIP_OBSERVE_EMBEDDINGS,
                                               DEEPCIP_OBSERVE_LISTS)


def test_item_graph_edge_list_is_unchanged(store, tmp_path):
    assert edge_list_digest(store, tmp_path / "edges.tsv") == EDGE_LIST
