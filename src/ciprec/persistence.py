"""Versioned on-disk formats for event logs and trained models.

Every file starts with ``CIPREC1 <kind>``; loaders verify both the magic
and the kind and fail loudly on a mismatch. A model file names the
canonical events file it was built from (path relative to the model
file) and records that file's size and SHA-256; loading raises
``FormatError`` when the events file no longer matches them.

cip-u, cip-i and popularity models are functions of their events and
params, so their files hold only the params, one ``key value`` line
each, and loading retrains the model from the events file. deepcip and
fism files add their factors as little-endian float64 binary rows under
raw ids, so a save/load round trip reproduces their answers exactly even
though dense internal indices are reassigned on load.
"""

from __future__ import annotations

import hashlib
import inspect
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ciprec.cip_i import CipIModel
from ciprec.cip_u import CipUModel
from ciprec.deepcip import DeepCipRecommender, EmbeddingModel, TrainConfig
from ciprec.fism import FismModel
from ciprec.ingest import (EVENTS_HEADER, EventLog, ParseError, ProfileStore,
                           build_profiles, parse_events)
from ciprec.popularity import PopularityModel

MAGIC = "CIPREC1"

# rows written at a time by dump_events
_DUMP_BLOCK = 2**14


class FormatError(ValueError):
    """Bad magic, wrong kind, or malformed payload."""


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
    """Canonical events file (the ``events`` format of
    :func:`~ciprec.ingest.parse_events`): header plus raw
    ``user,item,timestamp`` lines in timestamp order, written atomically
    a block of rows at a time."""
    user_ids, item_ids = np.asarray(log.user_ids), np.asarray(log.item_ids)
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(EVENTS_HEADER + "\n")
        for lo in range(0, len(log), _DUMP_BLOCK):
            hi = lo + _DUMP_BLOCK
            fh.writelines(map("{},{},{}\n".format,
                              user_ids[log.users[lo:hi]].tolist(),
                              item_ids[log.items[lo:hi]].tolist(),
                              log.ts[lo:hi].tolist()))


def load_events(path) -> EventLog:
    """Read a canonical events file; dense ids are assigned by first
    appearance, ratings are absent."""
    try:
        return parse_events(path, "events")
    except ParseError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _events_ref(model_path, events_path) -> str:
    model_dir = Path(model_path).resolve().parent
    return os.path.relpath(Path(events_path).resolve(), model_dir)


def _resolve_ref(model_path, ref: str) -> Path:
    return (Path(model_path).resolve().parent / ref).resolve()


def _read_kv(fh, key: str, path) -> str:
    line = fh.readline()
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    line = line.strip()
    if not line.startswith(key + " "):
        raise FormatError(f"{path}: expected '{key} ...', got {line!r}")
    return line[len(key) + 1:]


def _read_fields(fh, path, *fields) -> list:
    """The values of one binary-mode line ``label value label value ...``
    whose labels and types are the ``(label, type)`` pairs of ``fields``."""
    line = fh.readline().decode("utf-8")
    parts = line.split()
    labels = [label for label, _ in fields]
    if len(parts) != 2 * len(fields) or parts[0::2] != labels:
        raise FormatError(f"{path}: expected values labelled {labels}, got {line.strip()!r}")
    try:
        return [kind(value) for (_, kind), value in zip(fields, parts[1::2])]
    except ValueError:
        raise FormatError(f"{path}: non-numeric value in {line.strip()!r}") from None


def _read_ids(fh, key: str, path) -> list[int]:
    """The integer ids of a ``key id id ...`` line."""
    line = _read_kv(fh, key, path)
    try:
        return [int(x) for x in line.split()]
    except ValueError:
        raise FormatError(f"{path}: non-integer id in the {key} line") from None


def _digest(path) -> str:
    """``<size> <sha256>`` of a file's bytes."""
    h, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            size += len(block)
    return f"{size} {h.hexdigest()}"


def _head(kind: str, model_path, events_path) -> str:
    """The header, events reference and events digest lines of a model
    file."""
    return (f"{MAGIC} {kind}\n"
            f"events {_events_ref(model_path, events_path)}\n"
            f"events-digest {_digest(events_path)}\n")


def _read_ref(fh, path) -> tuple[str, str]:
    """The events reference and digest that follow a model file's header."""
    ref = _read_kv(fh, "events", path)
    try:
        return ref, _read_kv(fh, "events-digest", path)
    except FormatError:
        raise FormatError(f"{path}: no events digest; a model file written "
                          "before model files recorded one must be retrained "
                          "with 'ciprec train'") from None


def _load_ref_profiles(model_path, ref: str, digest: str, raw_users=(),
                       raw_items=()) -> tuple[EventLog, ProfileStore]:
    events_path = _resolve_ref(model_path, ref)
    if not events_path.exists():
        raise FormatError(
            f"{model_path}: events reference {ref!r} not found at "
            f"{events_path}; keep the model next to its events file")
    if _digest(events_path) != digest:
        raise FormatError(
            f"{model_path}: events file {events_path} changed after the "
            f"model was saved (saved size and sha256: {digest})")
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


# kinds whose file holds only params: loading retrains them
_DERIVED = {"cip-u": CipUModel, "cip-i": CipIModel, "popularity": PopularityModel}


def save_model(model, path, events_path) -> None:
    """Write any trained model next to its canonical events file,
    atomically: a failed save leaves the previous file as it was."""
    savers = {**dict.fromkeys(_DERIVED, _save_derived),
              "deepcip": _save_deepcip, "fism": _save_fism}
    kind = getattr(model, "kind", None)
    if kind not in savers:
        raise FormatError(f"cannot save model of kind {kind!r}")
    head = _head(kind, path, events_path)
    _check_events(model, events_path)
    with _replacing(path) as tmp:
        savers[kind](model, tmp, head)


def _check_events(model, events_path) -> None:
    """Raise FormatError unless the events file holds as many profile
    events as the model, a cheap guard against saving a model with an
    events file that is not its own. Re-consumptions collapse in
    profiles, so a file with another row count is rebuilt and counted."""
    store = getattr(model, "profiles", None)
    if store is None:
        return
    want = sum(map(len, store.profiles.values()))
    with open(events_path, "rb") as fh:
        rows = sum(b.count(b"\n") for b in iter(lambda: fh.read(1 << 20), b"")) - 1
    if rows != want:
        rows = sum(map(len, build_profiles(load_events(events_path)).profiles.values()))
    if rows != want:
        raise FormatError(f"{events_path} holds {rows} profile events, the model "
                          f"{want}: it is not the model's events file")


def save_with_events(model, path, log: EventLog) -> None:
    """Save ``model`` at ``path`` with ``log`` as its events file, named
    ``<path>.events`` or ``<path>.events.1``, whichever the file already
    at ``path`` does not reference. The model file's atomic replace
    switches it to the new log, so a failed save leaves the previous
    model and its events file loadable; the previous log is removed
    after the switch."""
    own = [Path(f"{path}.events").resolve(), Path(f"{path}.events.1").resolve()]
    old = _events_of(path)
    new = own[1] if old == own[0] else own[0]
    dump_events(log, new)
    save_model(model, path, new)
    if old in own and old != new:
        old.unlink(missing_ok=True)


def _events_of(path) -> Path | None:
    """The events file the model file at ``path`` references, or None
    when no model file is there."""
    try:
        with open(path, "rb") as fh:
            fh.readline()
            return _resolve_ref(path, _read_kv(fh, "events", path))
    except (OSError, ValueError):       # FormatError and bad UTF-8 too
        return None


def load_model(path):
    """Load any model file, rebuilding profiles from its events
    reference. The returned object answers queries identically to the
    one that was saved."""
    kind = peek_kind(path)
    loaders = {**dict.fromkeys(_DERIVED, _load_derived),
               "deepcip": _load_deepcip, "fism": _load_fism}
    if kind not in loaders:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    return loaders[kind](path, kind)


def _save_derived(model, path, head: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.writelines(f"{key} {value}\n" for key, value in model.params.items())


def _load_derived(path, kind: str):
    """Retrain a cip-u, cip-i or popularity model from its events file
    with the params of its file, one integer for each argument of the
    kind's ``train`` after the store."""
    cls = _DERIVED[kind]
    names = list(inspect.signature(cls.train).parameters)[1:]
    params = {}
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()                   # the header, checked by peek_kind
        ref, digest = _read_ref(fh, path)
        for line in fh:
            parts = line.split()
            if len(parts) != 2 or parts[0] not in names or parts[0] in params:
                raise FormatError(f"{path}: expected one '<param> <value>' line "
                                  f"for each of {names}, got {line.strip()!r}")
            try:
                params[parts[0]] = int(parts[1])
            except ValueError:
                raise FormatError(f"{path}: {parts[0]} {parts[1]!r} is not an "
                                  "integer") from None
    if len(params) != len(names):
        raise FormatError(f"{path}: missing params "
                          f"{[n for n in names if n not in params]}")
    _, store = _load_ref_profiles(path, ref, digest)
    try:
        return cls.train(store, **params)
    except ValueError as exc:         # out-of-range params
        raise FormatError(f"{path}: {exc}") from None


def _save_deepcip(rec, path, head: str) -> None:
    model: EmbeddingModel = getattr(rec, "model", rec)
    delta = getattr(rec, "delta", 60)
    store = getattr(rec, "profiles", None)
    if store is not None:
        raw_ids = [store.item_ids[int(i)] for i in model.item_ids]
    else:
        raw_ids = [int(i) for i in model.item_ids]
    cfg = model.config
    header = head + (
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


def _load_deepcip(path, kind: str) -> DeepCipRecommender:
    with open(path, "rb") as fh:
        fh.readline()                   # the header, checked by peek_kind
        ref, digest = _read_ref(fh, path)
        [delta] = _read_fields(fh, path, ("delta", int))
        n, d = _read_fields(fh, path, ("n", int), ("d", int))
        window, negatives, lr, min_lr, epochs, seed = _read_fields(
            fh, path, ("window", int), ("negatives", int), ("lr", float),
            ("min-lr", float), ("epochs", int), ("seed", int))
        raw_items = _read_ids(fh, "items", path)
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
    log, store = _load_ref_profiles(path, ref, digest)
    missing = [i for i in raw_items if i not in log.item_index]
    if missing:
        raise FormatError(f"{path}: items {missing[:5]} are not in the events file")
    dense = np.asarray([log.item_index[i] for i in raw_items], dtype=np.int64)
    cfg = TrainConfig(dim=d, window=window, negatives=negatives, lr=lr,
                      min_lr=min_lr, epochs=epochs, seed=seed)
    model = EmbeddingModel(dense, syn0, syn1, cfg)
    return DeepCipRecommender(model, store, delta)


def _save_fism(model: FismModel, path, head: str) -> None:
    if model.profiles is None:
        raise FormatError("fism model has no profiles attached")
    store = model.profiles
    header = head + (
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


def _load_fism(path, kind: str) -> FismModel:
    with open(path, "rb") as fh:
        fh.readline()                   # the header, checked by peek_kind
        ref, digest = _read_ref(fh, path)
        m, n, k, alpha = _read_fields(fh, path, ("m", int), ("n", int), ("k", int),
                                      ("alpha", float))
        [delta] = _read_fields(fh, path, ("delta", int))
        raw_users = _read_ids(fh, "users", path)
        raw_items = _read_ids(fh, "items", path)
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
    log, store = _load_ref_profiles(path, ref, digest, raw_users, raw_items)
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
