"""Versioned on-disk formats for event logs and trained models.

Every file starts with ``CIPREC1 <kind>``; loaders verify both the magic
and the kind and fail loudly on a mismatch. Model files reference the
canonical events file they were built from (path relative to the model
file), carry all ids as raw ids, and keep float payloads either as
full-precision reprs or as little-endian float64 binary rows, so a
save/load round trip reproduces the model's answers exactly even though
dense internal indices are reassigned on load.
"""

from __future__ import annotations

import math
import os
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.sparse import triu

from ciprec.analysis import ItemGraph
from ciprec.cip_i import CipIModel
from ciprec.cip_u import CipUModel
from ciprec.deepcip import DeepCipRecommender, EmbeddingModel, TrainConfig
from ciprec.fism import FismModel
from ciprec.ingest import EventLog, ProfileStore, build_profiles
from ciprec.popularity import PopularityModel

MAGIC = "CIPREC1"


class FormatError(ValueError):
    """Bad magic, wrong kind, or malformed payload."""


def _check_header(line: str, kind: str, path) -> None:
    parts = line.strip().split()
    if len(parts) != 2 or parts[0] != MAGIC:
        raise FormatError(f"{path}: expected '{MAGIC} <kind>' header, got {line!r}")
    if parts[1] != kind:
        raise FormatError(f"{path}: expected kind {kind!r}, got {parts[1]!r}")


def peek_kind(path) -> str:
    with open(path, "rb") as fh:
        line = fh.readline().decode("utf-8", errors="replace")
    parts = line.strip().split()
    if len(parts) != 2 or parts[0] != MAGIC:
        raise FormatError(f"{path}: not a {MAGIC} file")
    return parts[1]


@contextmanager
def _replacing(path):
    """Yield a temporary path next to ``path`` and move it over ``path``
    once the block returns, so readers see the old file or the whole new
    one; on an exception the temporary file is removed instead."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump_events(log: EventLog, path) -> None:
    """Canonical events file: header plus raw ``user,item,timestamp``
    lines in timestamp order, written atomically."""
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC} events\n")
        for k in range(len(log)):
            u = log.user_ids[int(log.users[k])]
            i = log.item_ids[int(log.items[k])]
            fh.write(f"{u},{i},{int(log.ts[k])}\n")


def load_events(path) -> EventLog:
    """Read a canonical events file; dense ids are assigned by first
    appearance, ratings are absent."""
    users: list[int] = []
    items: list[int] = []
    ts: list[int] = []
    user_ids: list[int] = []
    item_ids: list[int] = []
    user_index: dict[int, int] = {}
    item_index: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        _check_header(header, "events", path)
        for line_no, raw in enumerate(fh, 2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise FormatError(f"{path}:{line_no}: expected user,item,timestamp")
            try:
                u_raw, i_raw, t = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"{path}:{line_no}: non-integer field") from None
            u = user_index.setdefault(u_raw, len(user_ids))
            if u == len(user_ids):
                user_ids.append(u_raw)
            i = item_index.setdefault(i_raw, len(item_ids))
            if i == len(item_ids):
                item_ids.append(i_raw)
            users.append(u)
            items.append(i)
            ts.append(t)
    if not users:
        raise FormatError(f"{path}: no events")
    order = np.argsort(np.asarray(ts), kind="stable")
    return EventLog(np.asarray(users)[order], np.asarray(items)[order],
                    np.asarray(ts)[order],
                    np.full(len(users), math.nan)[order],
                    user_ids, item_ids, user_index, item_index)


def _events_ref(model_path, events_path) -> str:
    model_dir = Path(model_path).resolve().parent
    return os.path.relpath(Path(events_path).resolve(), model_dir)


def _resolve_ref(model_path, ref: str) -> Path:
    return (Path(model_path).resolve().parent / ref).resolve()


def _load_ref_profiles(model_path, ref: str, raw_users=(), raw_items=()
                       ) -> tuple[EventLog, ProfileStore]:
    events_path = _resolve_ref(model_path, ref)
    if not events_path.exists():
        raise FormatError(
            f"{model_path}: events reference {ref!r} not found at "
            f"{events_path}; keep the model next to its events file")
    log = load_events(events_path)
    # a model may carry catalog rows for ids its events file never
    # mentions (e.g. trained on a split that inherited the full id
    # space); extend the rebuilt dictionaries so every row keeps a slot
    for raw in raw_users:
        if raw not in log.user_index:
            log.user_index[raw] = len(log.user_ids)
            log.user_ids.append(raw)
    for raw in raw_items:
        if raw not in log.item_index:
            log.item_index[raw] = len(log.item_ids)
            log.item_ids.append(raw)
    return log, build_profiles(log)


def _fmt_float(x: float) -> str:
    return repr(float(x))


def save_model(model, path, events_path) -> None:
    """Write any trained model next to its canonical events file,
    atomically: a failed save leaves the previous file as it was."""
    savers = {
        "cip-u": _save_cip_u,
        "cip-i": _save_cip_i,
        "deepcip": _save_deepcip,
        "fism": _save_fism,
        "popularity": _save_popularity,
    }
    kind = getattr(model, "kind", None)
    if kind not in savers:
        raise FormatError(f"cannot save model of kind {kind!r}")
    ref = _events_ref(path, events_path)
    with _replacing(path) as tmp:
        savers[kind](model, tmp, ref)


def load_model(path):
    """Load any model file, rebuilding profiles from its events
    reference. The returned object answers queries identically to the
    one that was saved."""
    kind = peek_kind(path)
    loaders = {
        "cip-u": _load_cip_u,
        "cip-i": _load_cip_i,
        "deepcip": _load_deepcip,
        "fism": _load_fism,
        "popularity": _load_popularity,
    }
    if kind not in loaders:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    return loaders[kind](path)


def _sorted_rows(a, b, c) -> np.ndarray:
    """``(min(a, b), max(a, b), c)`` int64 rows in ascending order."""
    rows = np.column_stack((np.minimum(a, b), np.maximum(a, b), c)).astype(np.int64)
    return rows[np.lexsort(rows.T[::-1])]


def _pair_rows(model: CipUModel) -> np.ndarray:
    """H's upper triangle as sorted ``(raw user, raw user, count)`` rows,
    the smaller raw id first."""
    up = triu(model._h, k=1).tocoo()
    ids = np.asarray(model.profiles.user_ids, dtype=np.int64)
    return _sorted_rows(ids[up.row], ids[up.col], up.data)


def _save_cip_u(model: CipUModel, path, ref: str) -> None:
    pairs = _pair_rows(model)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC} cip-u\n")
        fh.write(f"events {ref}\n")
        fh.write(f"delta-h {model.delta_h}\n")
        fh.write(f"k {model.k}\n")
        fh.write(f"pairs {len(pairs)}\n")
        np.savetxt(fh, pairs, fmt="%d")


def _load_cip_u(path) -> CipUModel:
    """Load a cip-u model: the pair store is rebuilt from the events
    file, and the file's non-zero pair counts must match it."""
    vals = array("q")
    with open(path, "r", encoding="utf-8") as fh:
        _check_header(fh.readline(), "cip-u", path)
        ref = _read_kv(fh, "events", path)
        delta_h = int(_read_kv(fh, "delta-h", path))
        k = int(_read_kv(fh, "k", path))
        n_pairs = int(_read_kv(fh, "pairs", path))
        model = CipUModel.train(_load_ref_profiles(path, ref)[1], delta_h, k)
        for _ in range(n_pairs):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise FormatError(f"{path}: truncated pairs section")
            try:
                vals.extend(map(int, parts))
            except (ValueError, OverflowError):
                raise FormatError(f"{path}: pair row is not three 64-bit integers") from None
    rows = np.frombuffer(vals, dtype=np.int64).reshape(-1, 3)
    rows = rows[rows[:, 2] != 0]          # older files also list zero counts
    if not np.array_equal(_sorted_rows(*rows.T), _pair_rows(model)):
        raise FormatError(f"{path}: pairs do not match its events file")
    return model


def _read_kv(fh, key: str, path) -> str:
    line = fh.readline().strip()
    if not line.startswith(key + " "):
        raise FormatError(f"{path}: expected '{key} ...', got {line!r}")
    return line[len(key) + 1:]


def _save_cip_i(model: CipIModel, path, ref: str) -> None:
    ids = model.profiles.item_ids
    cards = sorted((ids[i], c) for i, c in model.card.items())
    scores = []
    for i, row in model.score.items():
        for j, s in row.items():
            scores.append((ids[i], ids[j], s))
    scores.sort()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC} cip-i\n")
        fh.write(f"events {ref}\n")
        fh.write(f"delta {model.delta}\n")
        fh.write(f"k {model.k}\n")
        fh.write(f"card {len(cards)}\n")
        for i_raw, c in cards:
            fh.write(f"{i_raw} {c}\n")
        fh.write(f"scores {len(scores)}\n")
        for i_raw, j_raw, s in scores:
            fh.write(f"{i_raw} {j_raw} {_fmt_float(s)}\n")


def _load_cip_i(path) -> CipIModel:
    """Load a cip-i model. Every item must be in the events file, every
    card a positive integer, every scored item carded and every score a
    positive finite float."""
    with open(path, "r", encoding="utf-8") as fh:
        _check_header(fh.readline(), "cip-i", path)
        ref = _read_kv(fh, "events", path)
        delta = int(_read_kv(fh, "delta", path))
        k = int(_read_kv(fh, "k", path))
        log, store = _load_ref_profiles(path, ref)
        model = CipIModel(delta, k)
        model.profiles = store

        def item(raw: str) -> int:
            try:
                return log.item_index[int(raw)]
            except (KeyError, ValueError):
                raise FormatError(f"{path}: item {raw!r} is not an item of "
                                  "its events file") from None

        n_card = int(_read_kv(fh, "card", path))
        for _ in range(n_card):
            parts = fh.readline().split()
            if len(parts) != 2:
                raise FormatError(f"{path}: truncated card section")
            try:
                c = int(parts[1])
            except ValueError:
                c = 0
            if c <= 0:
                raise FormatError(f"{path}: card {parts[1]!r} is not a positive integer")
            model.card[item(parts[0])] = c
        n_scores = int(_read_kv(fh, "scores", path))
        for _ in range(n_scores):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise FormatError(f"{path}: truncated scores section")
            i, j = item(parts[0]), item(parts[1])
            try:
                s = float(parts[2])
            except ValueError:
                s = math.nan
            if not (0.0 < s < math.inf):
                raise FormatError(f"{path}: score {parts[2]!r} is not a positive "
                                  "finite number")
            if i not in model.card or j not in model.card:
                raise FormatError(f"{path}: score row {parts[0]} {parts[1]} "
                                  "names an item without a card")
            model.score.setdefault(i, {})[j] = s
    return model


def _save_deepcip(rec, path, ref: str) -> None:
    model: EmbeddingModel = getattr(rec, "model", rec)
    delta = getattr(rec, "delta", 60)
    store = getattr(rec, "profiles", None)
    if store is not None:
        raw_ids = [store.item_ids[int(i)] for i in model.item_ids]
    else:
        raw_ids = [int(i) for i in model.item_ids]
    cfg = model.config
    header = (
        f"{MAGIC} deepcip\n"
        f"events {ref}\n"
        f"delta {delta}\n"
        f"n {len(model)} d {model.dim}\n"
        f"window {cfg.window} negatives {cfg.negatives} lr {_fmt_float(cfg.lr)} "
        f"min-lr {_fmt_float(cfg.min_lr)} epochs {cfg.epochs} seed {cfg.seed}\n"
        f"items {' '.join(str(i) for i in raw_ids)}\n"
        "binary\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(np.ascontiguousarray(model.syn0, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.syn1, dtype="<f8").tobytes())


def _load_deepcip(path) -> DeepCipRecommender:
    with open(path, "rb") as fh:
        _check_header(fh.readline().decode("utf-8"), "deepcip", path)
        ref = _read_kv_b(fh, "events", path)
        delta = int(_read_kv_b(fh, "delta", path))
        nd = _read_kv_b(fh, "n", path).split()
        if len(nd) != 3 or nd[1] != "d":
            raise FormatError(f"{path}: expected 'n <n> d <d>'")
        n, d = int(nd[0]), int(nd[2])
        hp_line = _read_kv_b(fh, "window", path).split()
        window = int(hp_line[0])
        negatives = int(hp_line[2])
        lr = float(hp_line[4])
        min_lr = float(hp_line[6])
        epochs = int(hp_line[8])
        seed = int(hp_line[10])
        raw_items = [int(x) for x in _read_kv_b(fh, "items", path).split()]
        if len(raw_items) != n:
            raise FormatError(f"{path}: items line has {len(raw_items)} ids, expected {n}")
        marker = fh.readline().decode("utf-8").strip()
        if marker != "binary":
            raise FormatError(f"{path}: expected 'binary' marker, got {marker!r}")
        payload = fh.read(2 * n * d * 8)
        if len(payload) != 2 * n * d * 8:
            raise FormatError(f"{path}: truncated binary payload")
    syn0 = np.frombuffer(payload[: n * d * 8], dtype="<f8").reshape(n, d).copy()
    syn1 = np.frombuffer(payload[n * d * 8:], dtype="<f8").reshape(n, d).copy()
    log, store = _load_ref_profiles(path, ref)
    dense = np.asarray([log.item_index[i] for i in raw_items], dtype=np.int64)
    cfg = TrainConfig(dim=d, window=window, negatives=negatives, lr=lr,
                      min_lr=min_lr, epochs=epochs, seed=seed)
    model = EmbeddingModel(dense, syn0, syn1, cfg)
    return DeepCipRecommender(model, store, delta)


def _read_kv_b(fh, key: str, path) -> str:
    line = fh.readline().decode("utf-8").strip()
    if not line.startswith(key + " "):
        raise FormatError(f"{path}: expected '{key} ...', got {line!r}")
    return line[len(key) + 1:]


def _save_fism(model: FismModel, path, ref: str) -> None:
    if model.profiles is None:
        raise FormatError("fism model has no profiles attached")
    store = model.profiles
    header = (
        f"{MAGIC} fism\n"
        f"events {ref}\n"
        f"m {model.num_users} n {model.num_items} k {model.k} "
        f"alpha {_fmt_float(model.alpha)}\n"
        f"delta {model.delta}\n"
        f"users {' '.join(str(r) for r in store.user_ids[:model.num_users])}\n"
        f"items {' '.join(str(r) for r in store.item_ids[:model.num_items])}\n"
        "binary\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        for arr in (model.b_user, model.b_item, model.p, model.q):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _load_fism(path) -> FismModel:
    with open(path, "rb") as fh:
        _check_header(fh.readline().decode("utf-8"), "fism", path)
        ref = _read_kv_b(fh, "events", path)
        shape = _read_kv_b(fh, "m", path).split()
        m, n, k = int(shape[0]), int(shape[2]), int(shape[4])
        alpha = float(shape[6])
        delta = int(_read_kv_b(fh, "delta", path))
        raw_users = [int(x) for x in _read_kv_b(fh, "users", path).split()]
        raw_items = [int(x) for x in _read_kv_b(fh, "items", path).split()]
        if len(raw_users) != m or len(raw_items) != n:
            raise FormatError(f"{path}: id lines do not match m/n")
        marker = fh.readline().decode("utf-8").strip()
        if marker != "binary":
            raise FormatError(f"{path}: expected 'binary' marker")
        need = (m + n + 2 * n * k) * 8
        payload = fh.read(need)
        if len(payload) != need:
            raise FormatError(f"{path}: truncated binary payload")
    off = 0

    def take(count, shape):
        nonlocal off
        arr = np.frombuffer(payload[off:off + count * 8], dtype="<f8")
        off += count * 8
        return arr.reshape(shape).copy()

    b_user_file = take(m, (m,))
    b_item_file = take(n, (n,))
    p_file = take(n * k, (n, k))
    q_file = take(n * k, (n, k))
    log, store = _load_ref_profiles(path, ref, raw_users, raw_items)
    u_perm = np.asarray([log.user_index[r] for r in raw_users])
    i_perm = np.asarray([log.item_index[r] for r in raw_items])
    b_user = np.zeros(store.num_users)
    b_user[u_perm] = b_user_file
    b_item = np.zeros(store.num_items)
    b_item[i_perm] = b_item_file
    p = np.zeros((store.num_items, k))
    p[i_perm] = p_file
    q = np.zeros((store.num_items, k))
    q[i_perm] = q_file
    model = FismModel(p, q, b_user, b_item, alpha, delta)
    model.profiles = store
    return model


def _count_rows(store: ProfileStore) -> list[tuple[int, int]]:
    """Sorted ``(raw item, count)`` rows of every consumed item."""
    counts = store.item_counts()
    return sorted((store.item_ids[i], int(c)) for i, c in enumerate(counts) if c > 0)


def _save_popularity(model: PopularityModel, path, ref: str) -> None:
    rows = _count_rows(model.profiles)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC} popularity\n")
        fh.write(f"events {ref}\n")
        fh.write(f"counts {len(rows)}\n")
        for raw, c in rows:
            fh.write(f"{raw} {c}\n")


def _load_popularity(path) -> PopularityModel:
    """Load a popularity model; its counts must match the ones rebuilt
    from the events file."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        _check_header(fh.readline(), "popularity", path)
        ref = _read_kv(fh, "events", path)
        n_rows = int(_read_kv(fh, "counts", path))
        for _ in range(n_rows):
            parts = fh.readline().split()
            if len(parts) != 2:
                raise FormatError(f"{path}: truncated counts section")
            try:
                rows.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise FormatError(f"{path}: non-integer count row") from None
    _, store = _load_ref_profiles(path, ref)
    if rows != _count_rows(store):
        raise FormatError(f"{path}: counts do not match its events file")
    return PopularityModel(store)


def load_graph(path) -> ItemGraph:
    """Read a tab-separated edge list back into a graph."""
    edges: dict[tuple[int, int], float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{line_no}: expected i<TAB>j<TAB>weight")
            i, j = int(parts[0]), int(parts[1])
            edges[(min(i, j), max(i, j))] = float(parts[2])
    return ItemGraph(edges)
