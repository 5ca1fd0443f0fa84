"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from ciprec.deepcip import sgns_batch
from ciprec.ingest import ProfileStore


def random_stream(rng, n_users: int, n_items: int, n_events: int,
                  max_gap: int = 100, unique_per_user: bool = False):
    """Random ``(user, item, ts)`` stream with strictly increasing ts."""
    events = []
    used: dict[int, set[int]] = {}
    t = 0
    while len(events) < n_events:
        u = int(rng.integers(n_users))
        i = int(rng.integers(n_items))
        if unique_per_user:
            owned = used.setdefault(u, set())
            if i in owned:
                if all(len(used.get(v, ())) >= n_items for v in range(n_users)):
                    break
                continue
            owned.add(i)
        t += int(rng.integers(1, max_gap))
        events.append((u, i, t))
    return events


def store_from(events) -> ProfileStore:
    store = ProfileStore(0, 0)
    for u, i, t in events:
        store.add_event(u, i, t)
    return store


def batches_from(events) -> dict[int, list[tuple[int, int]]]:
    out: dict[int, list[tuple[int, int]]] = {}
    for u, i, t in events:
        out.setdefault(u, []).append((i, t))
    return out


def fold_every(model, q: int):
    """Per-event replay hook that buffers events and folds them into
    ``model`` every ``q`` events: the reference a windowed replay
    (``precision_at_n(..., every=q)``) must match hit for hit."""
    buffer: dict[int, list[tuple[int, int]]] = {}
    count = [0]

    def hook(u: int, i: int, t: int) -> None:
        buffer.setdefault(u, []).append((i, t))
        count[0] += 1
        if count[0] % q == 0:
            model.observe(buffer)
            buffer.clear()

    return hook


def chunked_batches(rng, events, max_chunk: int = 20):
    """Split a stream into contiguous chunks, each as per-user batches."""
    pos = 0
    while pos < len(events):
        step = int(rng.integers(1, max_chunk))
        yield batches_from(events[pos:pos + step])
        pos += step


def sgns_gradient_error(rng, draws: int, eps: float = 1e-6) -> float:
    """Worst relative gap between :func:`sgns_batch`'s deltas at lr 1,
    which are minus the loss gradient, and central differences of its
    own loss on every input and output row entry. Each draw is a random
    mini-batch whose pairs share rows."""
    worst = 0.0
    for _ in range(draws):
        d = int(rng.integers(2, 10))
        m, k = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        base0 = rng.normal(0.0, 0.8, (int(rng.integers(1, 4)), d))
        base1 = rng.normal(0.0, 0.8, (int(rng.integers(1, 5)), d))
        batch = (rng.integers(0, len(base0), m), rng.integers(0, len(base1), m),
                 rng.integers(0, len(base1), (m, k)))
        _, acc0, acc1 = sgns_batch(base0, base1, *batch, 1.0)
        for base, acc in ((base0, acc0), (base1, acc1)):
            for idx in np.ndindex(base.shape):
                keep = base[idx]
                base[idx] = keep + eps
                up = sgns_batch(base0, base1, *batch, 1.0)[0]
                base[idx] = keep - eps
                down = sgns_batch(base0, base1, *batch, 1.0)[0]
                base[idx] = keep
                numeric = (up - down) / (2 * eps)
                worst = max(worst, abs(acc[idx] + numeric)
                            / max(1.0, abs(acc[idx]), abs(numeric)))
    return worst
