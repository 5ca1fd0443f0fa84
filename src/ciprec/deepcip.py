"""Skip-gram item embeddings with negative sampling, trained on packs.

Each pack is treated as an ordered sentence of items: every ordered pair
within ``window`` positions is a (target, context) training example.
The loss per example is

    -log sigmoid(v_in(target) . v_out(context))
    - sum_neg log sigmoid(-v_in(target) . v_out(neg))

with negatives drawn from the unigram distribution raised to 3/4.

Training shards the pack list across workers. For every vectorized
mini-batch a worker pulls just the parameter rows the batch touches
(a short lock), computes gradients lock-free on that snapshot, and
pushes the row deltas back under the same lock — so concurrent workers
see each other's progress after at most one batch, and delta addition
never loses another worker's update. With one worker and a fixed seed
the run is bit-reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from itertools import chain
from queue import Empty, Queue

import numpy as np
from scipy.special import expit

from ciprec.ingest import Cip, window_pairs


@dataclass
class TrainConfig:
    """Knobs for :func:`train`. ``lr`` decays linearly to ``min_lr`` over
    all scheduled pairs. ``shard_size`` is packs per worker fetch and
    ``batch_pairs`` the vectorized chunk size — also the push quantum,
    so it bounds how stale concurrent workers can get; much larger
    values destabilize multi-worker training on small vocabularies."""

    dim: int = 100
    window: int = 5
    negatives: int = 5
    lr: float = 0.025
    min_lr: float = 1e-4
    epochs: int = 5
    workers: int = 1
    seed: int = 1
    shard_size: int = 64
    batch_pairs: int = 256


class EmbeddingModel:
    """Input/output embedding matrices over an item vocabulary.

    ``item_ids[r]`` is the item at row ``r``; ``row`` is the inverse.
    ``syn0`` holds input (projection) vectors, used for all queries;
    ``syn1`` holds output vectors, used only by training.
    """

    kind = "deepcip"

    def __init__(self, item_ids: np.ndarray, syn0: np.ndarray, syn1: np.ndarray,
                 config: TrainConfig):
        self.item_ids = np.asarray(item_ids, dtype=np.int64)
        self.row = {int(i): r for r, i in enumerate(self.item_ids)}
        self.syn0 = syn0
        self.syn1 = syn1
        self.config = config
        self.counts = np.zeros(len(self.item_ids), dtype=np.float64)
        self._cum: np.ndarray | None = None
        self.epoch_losses: list[float] = []

    @classmethod
    def create(cls, item_ids, config: TrainConfig) -> "EmbeddingModel":
        """Fresh model: inputs uniform in [-0.5/dim, 0.5/dim], outputs zero."""
        ids = np.asarray(sorted(int(i) for i in item_ids), dtype=np.int64)
        if len(set(ids.tolist())) != len(ids):
            raise ValueError("duplicate item ids in vocabulary")
        rng = np.random.default_rng(config.seed)
        n, d = len(ids), config.dim
        syn0 = (rng.random((n, d), dtype=np.float64) - 0.5) / d
        syn1 = np.zeros((n, d), dtype=np.float64)
        return cls(ids, syn0, syn1, config)

    @property
    def dim(self) -> int:
        return self.syn0.shape[1]

    def __len__(self) -> int:
        return len(self.item_ids)

    def set_counts(self, counts: np.ndarray) -> None:
        self.counts = np.asarray(counts, dtype=np.float64)
        total = float(self.counts.sum())
        if total > 0:
            self._cum = np.cumsum(self.counts ** 0.75)
        else:
            self._cum = np.arange(1, len(self.item_ids) + 1, dtype=np.float64)

    def sample_negatives(self, exclude_row: int, k: int, rng) -> np.ndarray:
        """k negative rows from unigram^(3/4), re-drawing collisions with
        the positive context a few times before giving up."""
        if self._cum is None:
            self.set_counts(self.counts)
        cum = self._cum
        out = np.searchsorted(cum, rng.random(k) * cum[-1])
        for _ in range(10):
            bad = out == exclude_row
            if not bad.any():
                break
            out[bad] = np.searchsorted(cum, rng.random(int(bad.sum())) * cum[-1])
        return out


def gen_pairs(seqs, window: int) -> np.ndarray:
    """All ordered (target, context) pairs within ``window`` positions of
    each sequence, as the rows of an (m, 2) array: sequence by sequence,
    position by position, offsets ascending (-window .. -1, 1 .. window)."""
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    items, p, q = window_pairs(seqs, window)
    target, context = np.concatenate((q, p)), np.concatenate((p, q))
    order = np.lexsort((context - target, target))
    return np.stack((items[target[order]], items[context[order]]), axis=1)


def pair_count(length: int, window: int) -> int:
    return sum(min(t, window) + min(length - 1 - t, window) for t in range(length))


def sgns_loss_grads(v_in: np.ndarray, out_rows: np.ndarray,
                    labels: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and exact gradients for one target vector against a stack of
    output vectors with 0/1 labels. Gradients are of the loss (descend by
    subtracting lr times them)."""
    dots = out_rows @ v_in
    loss = float(np.sum(np.logaddexp(0.0, np.where(labels == 1, -dots, dots))))
    err = expit(dots) - labels
    grad_in = err @ out_rows
    grad_out = err[:, None] * v_in[None, :]
    return loss, grad_in, grad_out


def sgns_step(model: EmbeddingModel, target: int, context: int, lr: float,
              rng, negatives: int | None = None) -> float:
    """One SGD step on a single (target, context) item pair; returns the
    loss at the pre-update parameters."""
    k = model.config.negatives if negatives is None else negatives
    t = model.row[target]
    c = model.row[context]
    neg = model.sample_negatives(c, k, rng)
    rows = np.concatenate(([c], neg))
    labels = np.zeros(len(rows), dtype=np.float64)
    labels[0] = 1.0
    loss, g_in, g_out = sgns_loss_grads(model.syn0[t], model.syn1[rows], labels)
    np.add.at(model.syn1, rows, -lr * g_out)
    model.syn0[t] -= lr * g_in
    return loss


def _count_corpus(rows, n: int) -> np.ndarray:
    """Occurrences of each vocabulary row in the corpus."""
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64)
    return np.bincount(flat, minlength=n).astype(np.float64)


class _Shared:
    """Training-run state shared by workers."""

    def __init__(self, model, total_pairs, cfg):
        self.model = model
        self.total = max(1, total_pairs)
        self.cfg = cfg
        self.lock = threading.Lock()
        self.done = 0
        self.loss_sum = 0.0
        self.loss_pairs = 0

    def lr_now(self) -> float:
        frac = min(1.0, self.done / self.total)
        return max(self.cfg.min_lr, self.cfg.lr * (1.0 - frac))


def _train_shard(shared: _Shared, pairs_t: np.ndarray, pairs_c: np.ndarray,
                 rng) -> None:
    model = shared.model
    cfg = shared.cfg
    k = cfg.negatives
    cum = model._cum
    shard_loss = 0.0
    b = cfg.batch_pairs
    for lo in range(0, len(pairs_t), b):
        t_rows = pairs_t[lo:lo + b]
        c_rows = pairs_c[lo:lo + b]
        m = len(t_rows)
        neg = np.searchsorted(cum, rng.random((m, k)) * cum[-1])
        for _ in range(10):
            bad = neg == c_rows[:, None]
            if not bad.any():
                break
            neg[bad] = np.searchsorted(cum, rng.random(int(bad.sum())) * cum[-1])
        # pull: snapshot only the rows this mini-batch touches, so the
        # staleness other workers see is bounded by one batch
        rows0 = np.unique(t_rows)
        rows1 = np.unique(np.concatenate([c_rows, neg.ravel()]))
        t_c = np.searchsorted(rows0, t_rows)
        c_c = np.searchsorted(rows1, c_rows)
        n_c = np.searchsorted(rows1, neg)
        with shared.lock:
            base0 = model.syn0[rows0]
            base1 = model.syn1[rows1]
            lr = shared.lr_now()
            shared.done += m
        vin = base0[t_c]
        pos = base1[c_c]
        nvec = base1[n_c]
        pos_dot = np.einsum("bd,bd->b", vin, pos)
        neg_dot = np.einsum("bd,bkd->bk", vin, nvec)
        shard_loss += float(np.logaddexp(0.0, -pos_dot).sum()
                            + np.logaddexp(0.0, neg_dot).sum())
        g_pos = (1.0 - expit(pos_dot)) * lr
        g_neg = -expit(neg_dot) * lr
        g_in = g_pos[:, None] * pos + np.einsum("bk,bkd->bd", g_neg, nvec)
        acc0 = np.zeros_like(base0)
        acc1 = np.zeros_like(base1)
        np.add.at(acc0, t_c, g_in)
        np.add.at(acc1, c_c, g_pos[:, None] * vin)
        np.add.at(acc1, n_c.reshape(-1),
                  (g_neg[:, :, None] * vin[:, None, :]).reshape(-1, vin.shape[1]))
        # push: add this batch's deltas onto whatever the store holds now
        with shared.lock:
            model.syn0[rows0] += acc0
            model.syn1[rows1] += acc1
    with shared.lock:
        shared.loss_sum += shard_loss
        shared.loss_pairs += len(pairs_t)


def train(corpus, config: TrainConfig | None = None,
          model: EmbeddingModel | None = None) -> EmbeddingModel:
    """Train (or warm-start) embeddings on a corpus of packs.

    ``corpus`` is a sequence of :class:`~ciprec.ingest.Cip` or plain item
    sequences. With a warm-start ``model``, unseen items get fresh rows
    and existing rows keep their values until a pair touches them.
    Mean epoch losses end up in ``model.epoch_losses``.
    """
    cfg = config or TrainConfig()
    if cfg.workers <= 0:
        raise ValueError(f"workers must be positive, got {cfg.workers}")
    seqs = [list(c.items) if isinstance(c, Cip) else list(c) for c in corpus]
    if not seqs:
        raise ValueError("corpus is empty")
    vocab = sorted({i for seq in seqs for i in seq})
    if not vocab:
        raise ValueError("corpus has no items")
    if model is None:
        model = EmbeddingModel.create(vocab, cfg)
    else:
        fresh = sorted(set(vocab) - set(model.row))
        if fresh:
            rng = np.random.default_rng(cfg.seed)
            d = model.dim
            add0 = (rng.random((len(fresh), d), dtype=np.float64) - 0.5) / d
            model.syn0 = np.vstack([model.syn0, add0])
            model.syn1 = np.vstack([model.syn1, np.zeros((len(fresh), d))])
            model.item_ids = np.concatenate([model.item_ids,
                                             np.asarray(fresh, dtype=np.int64)])
            model.row = {int(i): r for r, i in enumerate(model.item_ids)}
        cfg = replace(cfg, dim=model.dim)
    model.config = cfg
    rows = [[model.row[i] for i in seq] for seq in seqs]
    model.set_counts(_count_corpus(rows, len(model)))

    multi = [r for r in rows if len(r) >= 2]
    shards = [gen_pairs(multi[i:i + cfg.shard_size], cfg.window)
              for i in range(0, len(multi), cfg.shard_size)]
    total_pairs = cfg.epochs * sum(len(s) for s in shards)
    shared = _Shared(model, total_pairs, cfg)
    model.epoch_losses = []
    if not shards:
        return model

    for epoch in range(cfg.epochs):
        shared.loss_sum = 0.0
        shared.loss_pairs = 0
        if cfg.workers == 1:
            for s_idx, shard in enumerate(shards):
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, epoch, s_idx]))
                _train_shard(shared, shard[:, 0], shard[:, 1], rng)
        else:
            q: Queue = Queue()
            for s_idx, shard in enumerate(shards):
                q.put((s_idx, shard))

            def pull():
                while True:
                    try:
                        s_idx, shard = q.get_nowait()
                    except Empty:
                        return
                    rng = np.random.default_rng(
                        np.random.SeedSequence([cfg.seed, epoch, s_idx]))
                    _train_shard(shared, shard[:, 0], shard[:, 1], rng)

            threads = [threading.Thread(target=pull) for _ in range(cfg.workers)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        if shared.loss_pairs:
            model.epoch_losses.append(shared.loss_sum / shared.loss_pairs)
    return model


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
        self.model = model
        self.profiles = store
        self.delta = delta

    def recommend(self, u: int, n: int) -> list[int]:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        prof = self.profiles.get(u)
        if prof is None or not prof.items:
            return self.profiles.popular(n)
        packs = prof.partition(self.delta)
        last = packs[-1].items
        try:
            ranked = most_similar(self.model, last, n, exclude=prof.pos)
        except ValueError:
            return self.profiles.popular(n, prof.pos)
        out = [i for i, _ in ranked]
        if len(out) < n:
            # items outside the co-consumption vocabulary can never rank;
            # pad with popular unconsumed items
            out.extend(self.profiles.popular(n - len(out), set(out) | set(prof.pos)))
        return out

    def observe(self, batches: dict[int, list[tuple[int, int]]]) -> None:
        """Fold new events into profiles (see
        :meth:`ProfileStore.extend`) and warm-start the embeddings for one
        epoch on every pack those events touched."""
        touched: list[list[int]] = []
        for u, first_new in self.profiles.extend(batches).items():
            prof = self.profiles.profiles[u]
            touched.extend(pack.items for pack in prof.partition(self.delta)
                           if prof.pos[pack.items[-1]] >= first_new)
        if touched:
            train(touched, replace(self.model.config, epochs=1), model=self.model)

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
    if exclude:
        drop = [model.row[i] for i in exclude if i in model.row]
        keep[drop] = False
    idx = np.nonzero(keep)[0]
    order = np.lexsort((model.item_ids[idx], -cos[idx]))[:n]
    sel = idx[order]
    return [(int(model.item_ids[r]), float(cos[r])) for r in sel]
