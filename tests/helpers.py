"""Shared builders for the test suite."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ciprec.deepcip import sgns_batch
from ciprec.ingest import EventLog, ProfileStore, parse_events


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


def parse_lines(lines, fmt: str) -> EventLog:
    """:func:`parse_events` of a temporary file holding ``lines``, each
    written as given (``newline=""``) and followed by ``\\n`` where it
    does not end in one."""
    text = "".join(line if line.endswith("\n") else line + "\n" for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.txt"
        path.write_text(text, encoding="utf-8", newline="")
        return parse_events(path, fmt)


def store_from(events) -> ProfileStore:
    store = ProfileStore(0, 0)
    for u, i, t in events:
        store.add_event(u, i, t)
    return store


def store_of_packs(packs) -> ProfileStore:
    """One user per pack, every event of a pack at one timestamp, so
    each profile is one pack whatever the gap threshold."""
    store = ProfileStore(0, 0)
    store.extend({u: [(int(i), 0) for i in pack] for u, pack in enumerate(packs)})
    return store


def cards(model) -> dict[int, int]:
    """cip-i's card of every held item, the number of packs that hold
    it: the model's store counts, read as ``{item: count}``."""
    counts = model.profiles.item_counts()
    return {i: int(counts[i]) for i in np.flatnonzero(counts).tolist()}


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
    mini-batch whose pairs share rows and share negatives, one of which
    is always some pair's own context, so the mask and the reweighting
    of the kept negatives are in every draw."""
    worst = 0.0
    for _ in range(draws):
        d = int(rng.integers(2, 10))
        m, kk = int(rng.integers(2, 6)), int(rng.integers(1, 7))
        base0 = rng.normal(0.0, 0.8, (int(rng.integers(1, 4)), d))
        base1 = rng.normal(0.0, 0.8, (int(rng.integers(1, 5)), d))
        t_c, c_c = rng.integers(0, len(base0), m), rng.integers(0, len(base1), m)
        n_c = rng.integers(0, len(base1), kk)
        n_c[0] = c_c[int(rng.integers(m))]
        batch = (t_c, c_c, n_c, float(rng.integers(1, 4)))
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
