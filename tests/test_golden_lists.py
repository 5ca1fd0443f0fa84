"""Fixed-seed outputs, hashed: the cip-i, cip-u and deepcip top-10 lists
of every 7th user, the cip-i scores, deepcip's warm start (``observe``)
lists, and the exported item-graph edge list of one seeded corpus; and
fingerprints of the deepcip embeddings and epoch losses, both after
training and after the warm start.

The digests were recorded with the code as it stood before the shared
pair enumerator (``ciprec.ingest.pair_positions``) replaced each
model's own pair loops. A change that reorders any list or edge, or
rounds any score differently, fails here; if the change is intended,
record the new digests and say why. The cip-i digests were recorded
again when cip-i scores became exact integer sums in fixed point: the
scores digest hashes those integers, and the lists of this corpus kept
their digest. The deepcip lists digests were recorded again when the
pairs of each mini-batch came to share their negatives. deepcip's
products run through BLAS, and BLAS kernels round their sums
differently (OpenBLAS's SkylakeX, Haswell, Sandybridge, Nehalem and
Katmai kernels give embeddings that differ by up to 2e-15 an entry), so
its embeddings are not hashed but fingerprinted: each array ``a`` is
reduced to ``u @ a @ v`` for fixed standard-normal ``u`` and ``v``,
which moves with any change to its values or row order, and compared
within ``FINGERPRINT_TOL``. On those kernels the fingerprints spread by
less than 1e-13, and their lists digests agree. When the SGNS kernel
came to take its dot products and deltas from products over each
mini-batch's distinct rows, its rounding moved the fingerprints by about
3e-14 and left the lists digests as they were. When it came to sum the
shared negatives' weights per (input row, distinct negative) and to take
one exponential per dot product, the fingerprints moved by at most
2.3e-14 (4.7e-14 from the recorded values) and the lists digests held.
"""

import hashlib

import numpy as np
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
# a BLAS kernel's rounding moves a fingerprint by < 1e-13; a change to
# the training moves it by far more
FINGERPRINT_TOL = 1e-9
# syn0 and syn1 fingerprints, then the epoch losses
DEEPCIP_EMBEDDINGS = [15.223884387010045, 36.33687539940652,
                      3.6848810073685874, 2.3972707593372986]
DEEPCIP_LISTS = "ba315b95c32730ba744635d2ec798e7310586f32254fc3df73dcc2c5e4f64874"
# syn0, syn1 and item_ids fingerprints, then the last epoch's loss
DEEPCIP_OBSERVE_EMBEDDINGS = [-3.0272543344844425, 58.2425746404284,
                              6661.480012460436, 2.2603652291403864]
DEEPCIP_OBSERVE_LISTS = "f5d44a42c0b183272ffaccfc0ce693e78697df7c0c811084002e847b5cfbfaeb"
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


def _fingerprint(a) -> float:
    a = np.asarray(a, dtype=np.float64).reshape(len(a), -1)
    rng = np.random.default_rng(0)
    return float(rng.standard_normal(a.shape[0]) @ a @ rng.standard_normal(a.shape[1]))


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
    weights = [_fingerprint(emb.syn0), _fingerprint(emb.syn1), *emb.epoch_losses]
    return weights, _lists(DeepCipRecommender(emb, store, 60), store)


def deepcip_observe_digests(events) -> tuple[str, str]:
    # train on the first 15,000 events, then fold 12 windows of 250 in
    store = store_from(events[:15_000])
    cfg = TrainConfig(dim=16, window=5, negatives=5, epochs=2, workers=1, seed=21)
    rec = DeepCipRecommender(train(all_cips(store, 60), cfg), store, 60)
    for lo in range(15_000, 18_000, 250):
        rec.observe(batches_from(events[lo:lo + 250]))
    emb = rec.model
    weights = [_fingerprint(emb.syn0), _fingerprint(emb.syn1),
               _fingerprint(emb.item_ids), *emb.epoch_losses]
    return weights, _lists(rec, store)


def edge_list_digest(store, path) -> str:
    export_edge_list(build_item_graph(store, 2, 3, 5), path)
    return _digest(path.read_bytes())


def test_cip_i_lists_and_scores_are_unchanged(store):
    assert cip_i_digests(store) == (CIP_I_LISTS, CIP_I_SCORES)


def test_cip_u_lists_are_unchanged(store):
    assert cip_u_digest(store) == CIP_U_LISTS


def test_deepcip_embeddings_and_lists_are_unchanged(store):
    weights, lists = deepcip_digests(store)
    assert lists == DEEPCIP_LISTS
    assert weights == pytest.approx(DEEPCIP_EMBEDDINGS, rel=0, abs=FINGERPRINT_TOL)


def test_deepcip_observe_embeddings_and_lists_are_unchanged(events):
    weights, lists = deepcip_observe_digests(events)
    assert lists == DEEPCIP_OBSERVE_LISTS
    assert weights == pytest.approx(DEEPCIP_OBSERVE_EMBEDDINGS, rel=0, abs=FINGERPRINT_TOL)


def test_item_graph_edge_list_is_unchanged(store, tmp_path):
    assert edge_list_digest(store, tmp_path / "edges.tsv") == EDGE_LIST
