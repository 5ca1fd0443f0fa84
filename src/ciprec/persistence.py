"""Versioned on-disk formats for event logs and trained models.

Every file starts with ``CIPREC1 <kind>``; loaders verify both the magic
and the kind and fail loudly on a mismatch. A model file of every kind
goes on with

    events <the canonical events file, relative to the model file>
    events-digest <size> <sha256 of the events file>
    <name> <value>            one line per param, in any order

and loading raises ``FormatError`` when the events file no longer
matches its digest. cip-u, cip-i and popularity models are functions of
their events and params, so loading retrains them from the events file.
deepcip and fism files end with their factors:

    rows-digest <sha256 of every byte after this line>
    users <raw id> ...        fism only
    items <raw id> ...
    binary
    <little-endian float64 rows>

so a save/load round trip reproduces their answers exactly even though
dense internal indices are reassigned on load.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ciprec.cip_i import CipIModel
from ciprec.cip_u import CipUModel
from ciprec.deepcip import DeepCipRecommender, EmbeddingModel, TrainConfig
from ciprec.fism import FismModel
from ciprec.ingest import (EVENTS_HEADER, EventLog, ParseError, build_profiles,
                           parse_events)
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
    """Read a canonical events file (``user,item,timestamp`` lines, no
    rating column); dense ids are assigned by first appearance."""
    try:
        return parse_events(path, "events")
    except ParseError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _events_ref(model_path, events_path) -> str:
    model_dir = Path(model_path).resolve().parent
    return os.path.relpath(Path(events_path).resolve(), model_dir)


def _resolve_ref(model_path, ref: str) -> Path:
    return (Path(model_path).resolve().parent / ref).resolve()


def _pair(line: bytes) -> tuple[str, str]:
    """The name and the value of a ``name value`` line."""
    name, _, value = line.decode("utf-8", errors="replace").strip().partition(" ")
    return name, value


def _expect(line: bytes, key: str, path, hint: str = "") -> str:
    """The value of ``line``, which must be a ``key value`` line."""
    name, value = _pair(line)
    if name != key:
        raise FormatError(f"{path}: expected '{key} ...', got {line[:80]!r}{hint}")
    return value


def _digest(path) -> tuple[str, int]:
    """``<size> <sha256>`` of a file's bytes and its number of newlines,
    from one read."""
    h, size, newlines = hashlib.sha256(), 0, 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            size += len(block)
            newlines += block.count(b"\n")
    return f"{size} {h.hexdigest()}", newlines


def _checked_events(model_path, ref: str, digest: str) -> EventLog:
    events_path = _resolve_ref(model_path, ref)
    if not events_path.exists():
        raise FormatError(
            f"{model_path}: events reference {ref!r} not found at "
            f"{events_path}; keep the model next to its events file")
    if _digest(events_path)[0] != digest:
        raise FormatError(
            f"{model_path}: events file {events_path} changed after the "
            f"model was saved (saved size and sha256: {digest})")
    return load_events(events_path)


def _split(rows: np.ndarray, *shapes) -> list[np.ndarray]:
    """Views of ``rows`` cut into arrays of ``shapes``, which use it up."""
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) != len(rows):
        raise ValueError(f"the file holds {len(rows)} floats, its params and "
                         f"id lines make {sum(sizes)}")
    ends = np.cumsum(sizes).tolist()
    return [rows[end - size:end].reshape(shape)
            for size, end, shape in zip(sizes, ends, shapes)]


def _deepcip(log: EventLog, rows, items, delta, dim, **cfg) -> DeepCipRecommender:
    missing = [i for i in items if i not in log.item_index]
    if missing:
        raise ValueError(f"items {missing[:5]} are not in the events file")
    syn0, syn1 = _split(rows, (len(items), dim), (len(items), dim))
    dense = np.asarray([log.item_index[i] for i in items], dtype=np.int64)
    model = EmbeddingModel(dense, syn0, syn1, TrainConfig(dim=dim, **cfg))
    return DeepCipRecommender(model, build_profiles(log), delta)


def _fism(log: EventLog, rows, users, items, k, alpha, delta) -> FismModel:
    # a model may carry catalog rows for ids its events file never
    # mentions (e.g. trained on a split that inherited the full id
    # space); extend the rebuilt dictionaries so every row keeps a slot
    for raw, ids, index in ((users, log.user_ids, log.user_index),
                            (items, log.item_ids, log.item_index)):
        for r in raw:
            if r not in index:
                index[r] = len(ids)
                ids.append(r)
    store = build_profiles(log)
    m, n = len(users), len(items)
    b_user_file, b_item_file, p_file, q_file = _split(rows, (m,), (n,), (n, k), (n, k))
    u_perm = np.asarray([log.user_index[r] for r in users], dtype=np.int64)
    i_perm = np.asarray([log.item_index[r] for r in items], dtype=np.int64)
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


# kind: (the type of each of its params, the raw-id lines of its float
# rows, its builder); a kind without id lines is retrained from the store
# of its events, the others are built from the events, rows and ids
_KINDS = {
    "cip-u": ({"delta_h": int, "k": int}, (), CipUModel.train),
    "cip-i": ({"delta": int, "k": int}, (), CipIModel.train),
    "popularity": ({}, (), PopularityModel.train),
    "deepcip": ({"delta": int, "dim": int, "window": int, "negatives": int,
                 "lr": float, "epochs": int, "seed": int}, ("items",), _deepcip),
    "fism": ({"k": int, "alpha": float, "delta": int}, ("users", "items"), _fism),
}


def save_model(model, path, events_path) -> None:
    """Write any trained model next to its canonical events file,
    atomically: a failed save leaves the previous file as it was."""
    kind = getattr(model, "kind", None)
    if kind not in _KINDS:
        raise FormatError(f"cannot save model of kind {kind!r}")
    if getattr(model, "profiles", None) is None:
        raise FormatError(f"{kind} model has no profiles attached")
    digest, newlines = _digest(events_path)
    _check_events(model, events_path, newlines - 1)
    head = (f"{MAGIC} {kind}\n"
            f"events {_events_ref(path, events_path)}\n"
            f"events-digest {digest}\n")
    with _replacing(path) as tmp:
        _write(model, tmp, head)


def _check_events(model, events_path, rows: int) -> None:
    """Raise FormatError unless the events file, of ``rows`` rows, holds
    as many profile events as the model, a cheap guard against saving a
    model with an events file that is not its own. Re-consumptions
    collapse in profiles, so a file with another row count is rebuilt and
    counted."""
    want = sum(map(len, model.profiles.profiles.values()))
    if rows != want:
        rows = sum(map(len, build_profiles(load_events(events_path)).profiles.values()))
    if rows != want:
        raise FormatError(f"{events_path} holds {rows} profile events, the model "
                          f"{want}: it is not the model's events file")


def _factors(model) -> tuple[dict, list]:
    """The raw-id lines and the float arrays of a deepcip or fism model;
    none for the other kinds."""
    store = model.profiles
    if model.kind == "deepcip":
        emb = model.model
        return ({"items": [store.item_ids[i] for i in emb.item_ids.tolist()]},
                [emb.syn0, emb.syn1])
    if model.kind == "fism":
        return ({"users": store.user_ids[:model.num_users],
                 "items": store.item_ids[:model.num_items]},
                [model.b_user, model.b_item, model.p, model.q])
    return {}, []


def _write(model, path, head: str) -> None:
    """Write ``head``, one line per param and, for deepcip and fism, the
    rows digest, the raw-id lines and the float rows."""
    ids, arrays = _factors(model)
    with open(path, "wb") as fh:
        fh.write((head + "".join(f"{key} {value}\n" for key, value
                                 in model.params.items())).encode("utf-8"))
        if ids:
            tail = "".join(f"{key} {' '.join(map(str, raw))}\n"
                           for key, raw in ids.items()).encode() + b"binary\n"
            arrays = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
            h = hashlib.sha256(tail)
            for a in arrays:
                h.update(a)
            fh.write(f"rows-digest {h.hexdigest()}\n".encode() + tail)
            for a in arrays:
                fh.write(a)


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
            return _resolve_ref(path, _expect(fh.readline(), "events", path))
    except (OSError, ValueError):       # FormatError too
        return None


def load_model(path):
    """Load any model file, rebuilding profiles from its events
    reference. The returned object answers queries identically to the
    one that was saved."""
    kind = peek_kind(path)
    if kind not in _KINDS:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    types, keys, build = _KINDS[kind]
    # a deepcip or fism file of the older labelled-line layout fails on
    # its param lines
    hint = (f"; a {kind} file saved before rows digests must be retrained "
            "with 'ciprec train'") if keys else ""
    params = {}
    with open(path, "rb") as fh:
        fh.readline()                   # the header, checked by peek_kind
        ref = _expect(fh.readline(), "events", path)
        digest = _expect(fh.readline(), "events-digest", path,
                         "; a file with no events digest must be retrained "
                         "with 'ciprec train'")
        # deepcip and fism params end at the rows digest, the others at EOF
        for line in [fh.readline() for _ in types] if keys else fh.readlines():
            name, value = _pair(line)
            if name not in types or name in params:
                raise FormatError(f"{path}: expected one '<param> <value>' line for "
                                  f"each of {list(types)}, got {line[:80]!r}{hint}")
            try:
                params[name] = types[name](value)
            except ValueError:
                raise FormatError(f"{path}: {name} {value!r} is not a valid "
                                  f"{types[name].__name__}") from None
        if len(params) != len(types):
            raise FormatError(f"{path}: missing params "
                              f"{[n for n in types if n not in params]}")
        if keys:
            rows_digest = _expect(fh.readline(), "rows-digest", path, hint)
            ids, rows = _read_rows(fh, path, keys, rows_digest)
    log = _checked_events(path, ref, digest)
    try:
        if keys:
            return build(log, rows, *ids, **params)
        return build(build_profiles(log), **params)
    except ValueError as exc:         # out-of-range params, rows that do not fit
        raise FormatError(f"{path}: {exc}") from None


def _read_rows(fh, path, keys, digest: str) -> tuple[list, np.ndarray]:
    """The raw-id lines ``keys``, the ``binary`` line and the float rows
    that end a deepcip or fism file, checked against ``digest`` before
    they are parsed."""
    lines = [fh.readline() for _ in range(len(keys) + 1)]
    rows = np.empty((os.fstat(fh.fileno()).st_size - fh.tell()) // 8, dtype="<f8")
    fh.readinto(rows)
    h = hashlib.sha256(b"".join(lines))
    h.update(rows)
    h.update(fh.read())
    if h.hexdigest() != digest:
        raise FormatError(f"{path}: the id lines or float rows do not match "
                          "the rows digest")
    if lines.pop() != b"binary\n":
        raise FormatError(f"{path}: expected a 'binary' line after the id lines")
    ids = []
    for key, line in zip(keys, lines):
        value = _expect(line, key, path)
        try:
            ids.append([int(x) for x in value.split()])
        except ValueError:
            raise FormatError(f"{path}: non-integer id in the {key} line") from None
    return ids, rows
