"""Skip-gram item embeddings with negative sampling, trained on packs.

Each pack is treated as an ordered sentence of items: every ordered pair
within ``window`` positions is a (target, context) training example.
The loss per example is

    -log sigmoid(v_in(target) . v_out(context))
    - sum_neg w * log sigmoid(-v_in(target) . v_out(neg))

with negatives drawn from the unigram distribution raised to 3/4. The
pairs of a mini-batch share one draw of ``NEGATIVE_SHARE * negatives``
negatives (the HogBatch scheme of Ji et al., arXiv:1604.04661): a shared
negative equal to a pair's own context is masked out for that pair, and
its other negatives weigh ``w = negatives / kept`` each, so every pair's
negatives weigh ``negatives`` in all. The negative dot products and
their gradients are then dense matrix products, which training runs on
one BLAS thread. The loss is only reported; its softplus terms are
vector passes (:func:`softplus`), and the row deltas are written into
one stack that a single CSR product sums.

Training takes the packs as arrays and shards them across workers,
forked processes that share the weight matrices. A worker draws the
negatives of all of a shard's mini-batches at once and finds every
batch's rows with one sort (:func:`batch_unique`); then, batch by batch,
it pulls just the parameter rows the batch touches (a short lock), runs
:func:`sgns_batch` on that snapshot, and pushes the row deltas back
under the same lock — so workers see each other's progress after at
most one batch, and no delta is lost. One worker runs in the calling
process; with a fixed seed its run is bit-reproducible on one BLAS
kernel (another may round the products differently).
"""

from __future__ import annotations

import ctypes
import glob
import mmap
import multiprocessing as mp
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import cache
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

from ciprec.ingest import pack_arrays, pair_positions


# packs per worker fetch
SHARD_SIZE = 64
# pairs per sgns_batch call and per push: it bounds how stale concurrent
# workers get; much larger values destabilize them on small vocabularies
BATCH_PAIRS = 256
# the learning rate's floor
MIN_LR = 1e-4
# a mini-batch shares NEGATIVE_SHARE * negatives draws, 25 at the defaults;
# sharing only ``negatives`` of them lost 4-5 % precision@10 at ML-100K shape
NEGATIVE_SHARE = 5


@dataclass
class TrainConfig:
    """Knobs for :func:`train`. ``lr`` decays linearly to ``MIN_LR`` over
    all scheduled pairs. Raises ValueError for an out-of-range knob."""

    dim: int = 100
    window: int = 5
    negatives: int = 5
    lr: float = 0.025
    epochs: int = 5
    workers: int = 1
    seed: int = 1

    def __post_init__(self):
        for name in ("dim", "window", "lr", "epochs", "workers"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("negatives", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


class EmbeddingModel:
    """Input/output embedding matrices over an item vocabulary.

    ``item_ids[r]`` is the item at row ``r``; ``row`` is the inverse.
    ``syn0`` holds input (projection) vectors, used for all queries;
    ``syn1`` holds output vectors, used only by training.
    """

    def __init__(self, item_ids: np.ndarray, syn0: np.ndarray, syn1: np.ndarray,
                 config: TrainConfig):
        self.item_ids = np.asarray(item_ids, dtype=np.int64)
        self.row = {int(i): r for r, i in enumerate(self.item_ids)}
        self.syn0 = syn0
        self.syn1 = syn1
        self.config = config
        self.set_counts(np.zeros(len(self.item_ids)))
        self.epoch_losses: list[float] = []

    @classmethod
    def create(cls, item_ids, config: TrainConfig) -> "EmbeddingModel":
        """Fresh model over ``item_ids`` (see :meth:`add_items`)."""
        ids = sorted(int(i) for i in item_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item ids in vocabulary")
        empty = np.zeros((0, config.dim))
        model = cls(np.zeros(0, dtype=np.int64), empty, empty, config)
        model.add_items(ids, config.seed)
        return model

    @property
    def dim(self) -> int:
        return self.syn0.shape[1]

    def __len__(self) -> int:
        return len(self.item_ids)

    def set_counts(self, counts: np.ndarray) -> None:
        self.counts = np.asarray(counts, dtype=np.float64)
        # negatives follow unigram^(3/4); uniform while nothing is counted
        self._cum = np.cumsum(self.counts ** 0.75 if self.counts.any()
                              else np.ones(len(self.counts)))

    def add_items(self, ids, seed: int) -> None:
        """Give the ids not yet in the vocabulary rows, in ascending id
        order: inputs uniform in [-0.5/dim, 0.5/dim] drawn from ``seed``,
        outputs zero."""
        fresh = sorted(set(ids) - set(self.row))
        if fresh:
            rng = np.random.default_rng(seed)
            d = self.dim
            add0 = (rng.random((len(fresh), d), dtype=np.float64) - 0.5) / d
            self.syn0 = np.vstack([self.syn0, add0])
            self.syn1 = np.vstack([self.syn1, np.zeros((len(fresh), d))])
            self.item_ids = np.concatenate([self.item_ids,
                                            np.asarray(fresh, dtype=np.int64)])
            self.row = {int(i): r for r, i in enumerate(self.item_ids)}


def gen_pairs(items, sizes, window: int) -> np.ndarray:
    """All ordered (target, context) pairs within ``window`` positions of
    each pack of ``sizes``, its ``items`` laid end to end, as the rows of
    an (m, 2) array: pack by pack, position by position, offsets
    ascending (-window .. -1, 1 .. window)."""
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    items = np.asarray(items, dtype=np.int64)
    p, q = pair_positions(sizes, window)
    target, context = np.concatenate((q, p)), np.concatenate((p, q))
    order = np.lexsort((context - target, target))
    return np.stack((items[target[order]], items[context[order]]), axis=1)


def pair_count(length: int, window: int) -> int:
    return sum(min(t, window) + min(length - 1 - t, window) for t in range(length))


def draw_negatives(cum: np.ndarray, size: int, rng) -> np.ndarray:
    """``size`` rows drawn from the cumulative unigram^(3/4) weights ``cum``."""
    return np.searchsorted(cum, rng.random(size) * cum[-1])


def softplus(x: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))`` elementwise, by the branches of
    ``np.logaddexp(0, x)`` run as vector passes; it never overflows."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sgns_batch(base0: np.ndarray, base1: np.ndarray, t_c: np.ndarray, c_c: np.ndarray,
               n_c: np.ndarray, k: float, lr: float) -> tuple[float, np.ndarray, np.ndarray]:
    """One SGD step of skip-gram with negative sampling on a mini-batch
    whose pairs share their negatives.

    Pair b has input vector ``base0[t_c[b]]`` and positive output vector
    ``base1[c_c[b]]``. The output vectors ``base1[n_c]`` are the negatives
    of every pair, except that pair b drops those with ``n_c[j] ==
    c_c[b]`` and weighs each one it keeps ``k / kept``, so that its
    negatives weigh ``k`` in all (none, where it keeps none); rows may
    repeat. Returns the batch loss at ``base0`` / ``base1`` and the summed
    row deltas ``(acc0, acc1)`` to add to them, which are ``-lr`` times
    the loss gradients.
    """
    m, s, n0 = len(t_c), len(n_c), len(base0)
    # input row t_c[b] gains g_in[b], output row c_c[b] gains
    # g_pos[b] * vin[b] and output row n_c[j] gains column j of
    # g_neg.T @ vin: one CSR product over these vectors, stacked in place
    stack = np.empty((2 * m + s, base0.shape[1]))
    # the indices are in range; "clip" only skips the copy "raise" buffers
    vin = np.take(base0, t_c, axis=0, out=stack[m:2 * m], mode="clip")
    pos = base1[c_c]
    nvec = base1[n_c]
    keep = n_c != c_c[:, None]
    w = keep * (k / np.maximum(keep.sum(axis=1), 1))[:, None]
    pos_dot = np.einsum("bd,bd->b", vin, pos)
    neg_dot = vin @ nvec.T
    loss = float(softplus(-pos_dot).sum() + (w * softplus(neg_dot)).sum())
    g_pos = (1.0 - expit(pos_dot)) * lr
    g_neg = -lr * w * expit(neg_dot)
    g_in = np.matmul(g_neg, nvec, out=stack[:m])
    g_in += g_pos[:, None] * pos
    np.matmul(g_neg.T, vin, out=stack[2 * m:])
    acc = _scatter(np.concatenate([t_c, n0 + c_c, n0 + n_c]), np.arange(2 * m + s),
                   np.concatenate([np.ones(m), g_pos, np.ones(s)]), stack, n0 + len(base1))
    return loss, acc[:n0], acc[n0:]


def _scatter(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
             vecs: np.ndarray, n: int) -> np.ndarray:
    """``out[r]`` is the sum of ``weights[j] * vecs[cols[j]]`` over the
    ``j`` with ``rows[j] == r``: each product rounded, then added in ``j``
    order as ``np.add.at`` into zeros would. One CSR product."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    order = np.argsort(rows, kind="stable")
    return csr_matrix((weights[order], cols[order], indptr),
                      shape=(n, len(vecs))) @ vecs


@cache
def _openblas(name: str, restype, *argtypes):
    """The function ``name`` (``get_num_threads``, say) of the OpenBLAS
    that numpy bundles, typed, under the symbol names its builds use; None
    where no such library or symbol is found."""
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, argtypes
                return fn
    return None


def _blas_thread_count():
    """OpenBLAS's ``(get, set)`` thread-count functions, or None where
    either is missing."""
    get = _openblas("get_num_threads", ctypes.c_int)
    put = _openblas("set_num_threads", None, ctypes.c_int)
    return None if get is None or put is None else (get, put)


def blas_guard_report() -> str:
    """One line: whether training can pin OpenBLAS to one thread, and
    which OpenBLAS kernel this host runs."""
    core = _openblas("get_corename", ctypes.c_char_p)
    found = ("OpenBLAS thread-count symbols found" if _blas_thread_count()
             else "no OpenBLAS thread-count symbols, a no-op")
    return f"deepcip BLAS guard: {found} | OpenBLAS core: {core().decode() if core else None}"


@contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread, then restore the previous count.
    A mini-batch's products are too small to gain from more threads, and
    forked workers would each start their own; without OpenBLAS, a no-op."""
    if (count := _blas_thread_count()) is None:
        yield
        return
    get, put = count
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


class _Shared:
    """Run state the workers share: the lock, the pairs done (for the
    learning-rate schedule), the epoch's loss sums and the next shard.
    ``ctx`` is the multiprocessing context of forked workers, or None for
    one worker in this process, which keeps plain counters."""

    def __init__(self, model, total_pairs, cfg, ctx):
        self.model = model
        self.total = max(1, total_pairs)
        self.cfg = cfg
        self.lock = ctx.Lock() if ctx else nullcontext()
        self.done, self.loss_sum, self.loss_pairs, self.next_shard = (
            ctx.Value(code, 0, lock=False) if ctx else SimpleNamespace(value=0)
            for code in "qdqq")

    def lr_now(self) -> float:
        frac = min(1.0, self.done.value / self.total)
        return max(MIN_LR, self.cfg.lr * (1.0 - frac))

    def take(self) -> int:
        with self.lock:
            self.next_shard.value += 1
            return self.next_shard.value - 1


def _shared_copy(a: np.ndarray) -> np.ndarray:
    """``a`` copied into memory that forked processes write in place."""
    out = np.frombuffer(mmap.mmap(-1, max(1, a.nbytes)), dtype=a.dtype)[:a.size]
    out[:] = a.ravel()
    return out.reshape(a.shape)


def batch_unique(rows: np.ndarray, batch: np.ndarray, n_batches: int, vocab: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(rows[batch == b], return_inverse=True)`` for every
    batch ``b`` below ``n_batches`` by one sort of the keys ``batch *
    vocab + rows`` (rows below ``vocab``): batch b's distinct rows are
    ``uniq[at[b]:at[b + 1]]``, and ``inv[batch == b]`` indexes them.
    Returns ``(uniq, at, inv)``."""
    keys, inv = np.unique(batch * vocab + rows, return_inverse=True)
    batch_of = keys // vocab
    at = np.searchsorted(batch_of, np.arange(n_batches + 1))
    return keys - batch_of * vocab, at, inv - at[batch]


def _shard_batches(pairs_t: np.ndarray, pairs_c: np.ndarray, cum: np.ndarray, k: int,
                   vocab: int, rng):
    """The mini-batches of one shard's pairs, as ``(rows0, rows1, t_c,
    c_c, n_c)``: the input rows and the output rows (contexts and
    negatives) a batch touches, and its targets, contexts and negatives
    as indices into them. Each batch draws ``NEGATIVE_SHARE * k``
    negatives from ``cum``; the draws and the row sets of all batches are
    made at once, for the shard."""
    n, s = len(pairs_t), NEGATIVE_SHARE * k
    n_batches = -(-n // BATCH_PAIRS)
    batch = np.arange(n) // BATCH_PAIRS
    # one draw of all the shard's negatives reads the same stream as one
    # draw per batch
    neg = draw_negatives(cum, n_batches * s, rng)
    rows0, at0, inv0 = batch_unique(pairs_t, batch, n_batches, vocab)
    rows1, at1, inv1 = batch_unique(np.concatenate([pairs_c, neg]),
                                    np.concatenate([batch, np.arange(n_batches).repeat(s)]),
                                    n_batches, vocab)
    for b in range(n_batches):
        lo, hi = b * BATCH_PAIRS, min(n, (b + 1) * BATCH_PAIRS)
        yield (rows0[at0[b]:at0[b + 1]], rows1[at1[b]:at1[b + 1]], inv0[lo:hi],
               inv1[lo:hi], inv1[n + b * s:n + (b + 1) * s])


def _train_shard(shared: _Shared, pairs_t: np.ndarray, pairs_c: np.ndarray,
                 rng) -> None:
    model, k = shared.model, shared.cfg.negatives
    shard_loss = 0.0
    for rows0, rows1, t_c, c_c, n_c in _shard_batches(pairs_t, pairs_c, model._cum, k,
                                                      len(model.syn0), rng):
        # pull: snapshot only the rows this mini-batch touches, so the
        # staleness other workers see is bounded by one batch
        with shared.lock:
            base0 = model.syn0[rows0]
            base1 = model.syn1[rows1]
            lr = shared.lr_now()
            shared.done.value += len(t_c)
        loss, acc0, acc1 = sgns_batch(base0, base1, t_c, c_c, n_c, k, lr)
        shard_loss += loss
        # push: add this batch's deltas onto whatever the store holds now
        with shared.lock:
            model.syn0[rows0] += acc0
            model.syn1[rows1] += acc1
    with shared.lock:
        shared.loss_sum.value += shard_loss
        shared.loss_pairs.value += len(pairs_t)


def train(corpus, config: TrainConfig | None = None) -> EmbeddingModel:
    """Train embeddings on a corpus of packs.

    ``corpus`` is a sequence of packs, each a sequence of item ids (see
    :func:`~ciprec.ingest.all_cips`), turned into pack arrays once. The
    vocabulary is the corpus's items in ascending id order; negatives
    follow their counts. Mean epoch losses end up in
    ``model.epoch_losses``. :meth:`DeepCipRecommender.observe` is the
    warm start.
    """
    cfg = config or TrainConfig()
    sizes = np.fromiter(map(len, corpus), dtype=np.int64, count=len(corpus))
    items = np.fromiter(chain.from_iterable(corpus), dtype=np.int64, count=int(sizes.sum()))
    # the vocabulary is sorted, so an item's row is its rank among the ids
    ids, rows = np.unique(items, return_inverse=True)
    if not len(ids):
        raise ValueError("corpus is empty or has no items")
    model = EmbeddingModel.create(ids, cfg)
    model.set_counts(np.bincount(rows, minlength=len(model)))
    _fit(model, rows, sizes, cfg)
    return model


def _fit(model: EmbeddingModel, rows: np.ndarray, sizes: np.ndarray, cfg: TrainConfig) -> None:
    """Run ``cfg.epochs`` epochs over packs of ``sizes``, their model
    ``rows`` laid end to end, drawing negatives from the model's current
    counts. Packs of one item are dropped; a shard is the next
    ``SHARD_SIZE`` packs' pairs."""
    multi = sizes >= 2
    rows, sizes = rows[np.repeat(multi, sizes)], sizes[multi]
    cut = [*range(0, len(sizes), SHARD_SIZE), len(sizes)]   # shard s: packs cut[s]:cut[s + 1]
    at = np.append(0, np.cumsum(sizes))[cut]
    shards = [gen_pairs(rows[a:b], sizes[lo:hi], cfg.window)
              for lo, hi, a, b in zip(cut, cut[1:], at, at[1:])]
    ctx = mp.get_context("fork") if cfg.workers > 1 else None
    shared = _Shared(model, cfg.epochs * sum(len(s) for s in shards), cfg, ctx)
    if cfg.workers > 1:
        if threading.active_count() > 1:    # a child gets only this thread's locks
            raise RuntimeError("workers > 1 forks: call train with no other threads")
        model.syn0, model.syn1 = _shared_copy(model.syn0), _shared_copy(model.syn1)
    model.epoch_losses = []
    with _one_blas_thread():
        for epoch in range(cfg.epochs):
            shared.loss_sum.value = shared.loss_pairs.value = shared.next_shard.value = 0

            def work():
                while (s_idx := shared.take()) < len(shards):
                    rng = np.random.default_rng(
                        np.random.SeedSequence([cfg.seed, epoch, s_idx]))
                    _train_shard(shared, shards[s_idx][:, 0], shards[s_idx][:, 1], rng)

            if cfg.workers == 1:
                work()              # shards in order in this process: reproducible
            else:
                procs = [ctx.Process(target=work) for _ in range(cfg.workers)]
                for pr in procs:
                    pr.start()
                for pr in procs:
                    pr.join()
                if any(pr.exitcode for pr in procs):
                    raise RuntimeError("a deepcip training worker failed")
            if shared.loss_pairs.value:
                model.epoch_losses.append(shared.loss_sum.value / shared.loss_pairs.value)


def cip_vector(model: EmbeddingModel, items) -> np.ndarray:
    """Mean input vector of a pack's known items."""
    rows = [model.row[i] for i in items if i in model.row]
    if not rows:
        raise ValueError("no known items in pack")
    return model.syn0[rows].mean(axis=0)


class DeepCipRecommender:
    """Embeddings plus profiles: recommends nearest neighbors of the
    user's most recent pack, excluding everything already consumed."""

    kind = "deepcip"

    def __init__(self, model: EmbeddingModel, store, delta: int):
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        self.model = model
        self.profiles = store
        self.delta = delta

    def recommend(self, u: int, n: int) -> list[int]:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        prof = self.profiles.get(u)
        if prof is None:
            return self.profiles.popular(n)
        last = prof.items[prof.cip_boundaries(self.delta)[-1]:]
        try:
            ranked = most_similar(self.model, last, n, exclude=prof.items)
        except ValueError:
            return self.profiles.popular(n, prof.items)
        out = [i for i, _ in ranked]
        if len(out) < n:
            # items outside the co-consumption vocabulary can never rank;
            # pad with popular unconsumed items
            out.extend(self.profiles.popular(n - len(out), [*out, *prof.items]))
        return out

    def observe(self, batches: dict[int, list[tuple[int, int]]]) -> None:
        """Fold new events into profiles (see :meth:`ProfileStore.extend`)
        and warm-start the embeddings, one epoch by one worker, on every
        pack they touched. Negatives follow the whole corpus: packs split
        profiles of distinct items, so corpus counts are profile counts."""
        before = self.profiles.extend(batches)
        items, sizes, _ = pack_arrays(self.profiles, self.delta, before)
        if len(sizes):
            model, cfg = self.model, replace(self.model.config, epochs=1, workers=1)
            model.add_items(set(items.tolist()), cfg.seed)
            model.set_counts(self.profiles.item_counts()[model.item_ids])
            rows = np.array([model.row[i] for i in items.tolist()], dtype=np.int64)
            _fit(model, rows, sizes, cfg)

    @property
    def params(self) -> dict:
        cfg = self.model.config
        return {"delta": self.delta, "dim": cfg.dim, "window": cfg.window,
                "negatives": cfg.negatives, "lr": cfg.lr,
                "epochs": cfg.epochs, "seed": cfg.seed}


def most_similar(model: EmbeddingModel, items, n: int,
                 exclude=()) -> list[tuple[int, float]]:
    """Top-n catalog items by cosine to the pack's mean input vector,
    ties by ascending item id; ``exclude`` ids are dropped first."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    q = cip_vector(model, items)
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        raise ValueError("pack vector has zero norm")
    norms = np.linalg.norm(model.syn0, axis=1)
    norms[norms == 0.0] = 1.0
    cos = (model.syn0 @ q) / (norms * qn)
    keep = np.ones(len(cos), dtype=bool)
    keep[[model.row[i] for i in exclude if i in model.row]] = False
    idx = np.flatnonzero(keep)
    order = np.lexsort((model.item_ids[idx], -cos[idx]))[:n]
    return [(int(model.item_ids[r]), float(cos[r])) for r in idx[order]]
