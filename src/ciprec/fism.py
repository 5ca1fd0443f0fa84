"""Factored item-similarity scorer with user and item biases.

The score of an unconsumed item i for user u whose profile splits into
packs V_1..V_L is

    b_u + b_i + (|V_1 u ... u V_L|)^(-alpha) * sum_l sum_{j in V_l} p_j . q_i

Packs partition the profile, so this is the flat sum over the consumed
items, and that is how :meth:`FismModel.recommend` computes it: the
model needs no packs (its ``delta`` is kept only as a param). A user
who consumed nothing scores as bias only (the normalizer is skipped).
Factors load from a file or start from a seeded Gaussian.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ciprec.ingest import ProfileStore


class FismModel:
    """Item factor matrices P, Q (n x k) plus bias vectors."""

    kind = "fism"

    def __init__(self, p: np.ndarray, q: np.ndarray, b_user: np.ndarray,
                 b_item: np.ndarray, alpha: float, delta: int = 60):
        if p.shape != q.shape:
            raise ValueError(f"P and Q shapes differ: {p.shape} vs {q.shape}")
        if len(b_item) != p.shape[0]:
            raise ValueError("item bias length does not match factor rows")
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        self.p = p
        self.q = q
        self.b_user = b_user
        self.b_item = b_item
        self.alpha = float(alpha)
        self.delta = delta
        self.profiles: ProfileStore | None = None

    @classmethod
    def random_init(cls, num_users: int, num_items: int, k: int,
                    alpha: float = 0.5, seed: int = 1, delta: int = 60) -> "FismModel":
        """Seeded Gaussian factors (sigma 0.01), zero biases."""
        rng = np.random.default_rng(seed)
        p = rng.normal(0.0, 0.01, size=(num_items, k))
        q = rng.normal(0.0, 0.01, size=(num_items, k))
        return cls(p, q, np.zeros(num_users), np.zeros(num_items), alpha, delta)

    @classmethod
    def train(cls, store: ProfileStore, delta: int, k: int,
              alpha: float = 0.5, seed: int = 1) -> "FismModel":
        model = cls.random_init(store.num_users, store.num_items, k, alpha,
                                seed, delta)
        model.profiles = store
        return model

    @property
    def num_items(self) -> int:
        return self.p.shape[0]

    @property
    def num_users(self) -> int:
        return len(self.b_user)

    @property
    def k(self) -> int:
        return self.p.shape[1]

    def score(self, cips, u: int, i: int) -> float:
        """Score of item i for user u whose profile is the union of the
        item sequences ``cips`` (its packs, or the whole profile as one).
        Raises ValueError for an already-consumed or unknown item, or an
        unknown user."""
        if not (0 <= u < self.num_users):
            raise ValueError(f"unknown user {u}")
        if not (0 <= i < self.num_items):
            raise ValueError(f"unknown item {i}")
        consumed = list(chain.from_iterable(cips))
        if i in consumed:
            raise ValueError(f"item {i} is already in user {u}'s profile")
        total = self.b_user[u] + self.b_item[i]
        if consumed:
            total += len(consumed) ** (-self.alpha) * float(
                self.p[consumed].sum(axis=0) @ self.q[i])
        return float(total)

    def recommend(self, u: int, n: int) -> list[int]:
        """Top-n unconsumed items for user u by score, ties by ascending
        item id. A user without a bias row (first seen after training)
        gets the popularity fallback without their own items."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if self.profiles is None:
            raise ValueError("model has no profiles attached")
        prof = self.profiles.get(u)
        consumed = prof.items if prof else ()
        if not (0 <= u < self.num_users):
            return self.profiles.popular(n, consumed)
        # items folded in after training have no factor row: they add
        # nothing to the sum and are never scored
        rows = sorted(i for i in consumed if i < self.num_items)
        scores = self.b_user[u] + self.b_item.copy()
        if consumed:
            profile_vec = self.p[rows].sum(axis=0)
            scores += len(consumed) ** (-self.alpha) * (self.q @ profile_vec)
        keep = np.ones(self.num_items, dtype=bool)
        keep[rows] = False
        idx = np.nonzero(keep)[0]
        order = np.lexsort((idx, -scores[idx]))[:n]
        return [int(i) for i in idx[order]]

    def observe(self, batches: dict[int, list[tuple[int, int]]]) -> None:
        """Fold new events into the profiles; the factors keep their
        trained shapes, so users and items first seen here have none
        (see :meth:`recommend`)."""
        self.profiles.extend(batches)

    @property
    def params(self) -> dict:
        return {"k": self.k, "alpha": self.alpha, "delta": self.delta}
