"""Item graph, community quality, and temporal-replay evaluation."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping
from xml.etree import ElementTree as ET
from xml.dom import minidom

import numpy as np

from ciprec.ingest import EventLog, ProfileStore, join_profiles, pair_positions

# profiles whose pairs are counted at a time: bounds the pair arrays
_GRAPH_BLOCK = 512


@dataclass
class ItemGraph:
    """Weighted undirected item graph; keys are (i, j) with i < j."""

    edges: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def nodes(self) -> list[int]:
        seen = set()
        for i, j in self.edges:
            seen.add(i)
            seen.add(j)
        return sorted(seen)

    def __len__(self) -> int:
        return len(self.edges)


def build_item_graph(store: ProfileStore, hop_back: int = 2, hop_fwd: int = 3,
                     min_weight: float = 30) -> ItemGraph:
    """Connect items consumed close together in some user's profile.

    Items at offsets -hop_back..hop_fwd pair, so an edge's weight is the
    number of users holding the pair at most max(hop_back, hop_fwd)
    positions apart (a profile's items are distinct, so a user counts
    once). Edges lighter than ``min_weight`` are dropped at the end.
    """
    if hop_back < 0 or hop_fwd < 0:
        raise ValueError("hop window must be non-negative")
    profs = list(store)
    keys, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    # count pairs a block of profiles at a time, then merge the counts
    for lo in range(0, len(profs), _GRAPH_BLOCK):
        items, _, lengths = join_profiles(profs[lo:lo + _GRAPH_BLOCK])
        p, q = pair_positions(lengths, max(hop_back, hop_fwd))
        i, j = items[p], items[q]
        block_keys, block_counts = np.unique((np.minimum(i, j) << 32) | np.maximum(i, j),
                                             return_counts=True)
        keys.append(block_keys)
        counts.append(block_counts)
    keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    counts = np.bincount(inverse.ravel(), weights=np.concatenate(counts))
    heavy = counts >= min_weight
    return ItemGraph({divmod(k, 1 << 32): w
                      for k, w in zip(keys[heavy].tolist(), counts[heavy].tolist())})


def modularity(graph: ItemGraph, partition: Mapping[int, int]) -> float:
    """Weighted modularity of a node-to-community assignment.

    Q = sum_c (w_c / W - (deg_c / 2W)^2) with w_c the intra-community
    weight, deg_c the summed weighted degree and W the total edge weight.
    Raises ValueError on an empty graph or a node missing from the
    partition.
    """
    if not graph.edges:
        raise ValueError("graph has no edges")
    total = 0.0
    intra: dict[int, float] = {}
    deg: dict[int, float] = {}
    for (i, j), w in graph.edges.items():
        try:
            ci = partition[i]
            cj = partition[j]
        except KeyError as exc:
            raise ValueError(f"node {exc.args[0]} missing from partition") from None
        total += w
        deg[ci] = deg.get(ci, 0.0) + w
        deg[cj] = deg.get(cj, 0.0) + w
        if ci == cj:
            intra[ci] = intra.get(ci, 0.0) + w
    q = 0.0
    for c in deg:
        q += intra.get(c, 0.0) / total - (deg[c] / (2.0 * total)) ** 2
    return q


def export_edge_list(graph: ItemGraph, path) -> None:
    """Tab-separated ``i<TAB>j<TAB>weight`` lines, sorted by pair."""
    with open(path, "w", encoding="utf-8") as fh:
        for (i, j) in sorted(graph.edges):
            w = graph.edges[(i, j)]
            w_s = str(int(w)) if float(w).is_integer() else repr(w)
            fh.write(f"{i}\t{j}\t{w_s}\n")


def export_graphml(graph: ItemGraph, path) -> None:
    """GraphML with a ``weight`` edge attribute."""
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    key = ET.SubElement(root, "key", id="w", **{"for": "edge"})
    key.set("attr.name", "weight")
    key.set("attr.type", "double")
    g = ET.SubElement(root, "graph", id="items", edgedefault="undirected")
    for node in graph.nodes:
        ET.SubElement(g, "node", id=str(node))
    for idx, (i, j) in enumerate(sorted(graph.edges)):
        e = ET.SubElement(g, "edge", id=f"e{idx}", source=str(i), target=str(j))
        d = ET.SubElement(e, "data", key="w")
        d.text = repr(float(graph.edges[(i, j)]))
    pretty = minidom.parseString(ET.tostring(root)).toprettyxml(indent="  ")
    Path(path).write_text(pretty, encoding="utf-8")


def load_partition(path) -> dict[int, int]:
    """Read a ``node,community`` CSV (header optional)."""
    out: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or (line_no == 1 and line == "node,community"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {line_no}: expected node,community")
            out[int(parts[0])] = int(parts[1])
    return out


@dataclass
class EvalReport:
    """One evaluation run's result."""

    model: str
    n: int
    params: dict
    hits: int
    events: int
    precision: float
    runtime_s: float

    CSV_COLUMNS = ("model", "n", "params", "hits", "events", "precision",
                   "runtime_s")

    def to_row(self) -> list[str]:
        params = ";".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return [self.model, str(self.n), params, str(self.hits),
                str(self.events), repr(self.precision), f"{self.runtime_s:.3f}"]


def write_reports(reports: Iterable[EvalReport], fh) -> None:
    """Fixed-column CSV; ``fh`` is an open text file."""
    fh.write(",".join(EvalReport.CSV_COLUMNS) + "\n")
    for r in reports:
        fh.write(",".join(r.to_row()) + "\n")


def precision_at_n(recommender, test_log: EventLog, n: int,
                   on_event: Callable[[int, int, int], None] | None = None) -> EvalReport:
    """Replay test events in timestamp order; each event counts as a hit
    iff its item is in the top-n recommended for its user at that moment.

    precision = hits / (events * n), so a recommender that always puts
    the one relevant item first scores 1/n. Without ``on_event`` the
    model is frozen and per-user lists are computed once; with it, the
    hook runs after every event (incremental replay) and caching is off.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if len(test_log) == 0:
        raise ValueError("test log is empty")
    t0 = time.perf_counter()
    hits = 0
    cache: dict[int, list[int]] = {}
    users = test_log.users
    items = test_log.items
    ts = test_log.ts
    for k in range(len(test_log)):
        u = int(users[k])
        i = int(items[k])
        recs = cache.get(u)
        if recs is None:
            recs = recommender.recommend(u, n)
            cache[u] = recs
        if i in recs:
            hits += 1
        if on_event is not None:
            on_event(u, i, int(ts[k]))
            cache.clear()
    elapsed = time.perf_counter() - t0
    events = len(test_log)
    return EvalReport(model=getattr(recommender, "kind", type(recommender).__name__),
                      n=n, params=dict(getattr(recommender, "params", {})),
                      hits=hits, events=events,
                      precision=hits / (events * n), runtime_s=elapsed)


def sweep(build: Callable[[dict], object], grid: Mapping[str, list],
          eval_log: EventLog, n: int) -> list[EvalReport]:
    """Evaluate one recommender per grid-point, in deterministic
    cartesian-product order. ``build`` gets one {param: value} dict and
    returns a recommender; the swept values are merged into each
    report's params."""
    keys = list(grid)
    reports = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        point = dict(zip(keys, combo))
        rec = build(dict(point))
        report = precision_at_n(rec, eval_log, n)
        report.params.update(point)
        reports.append(report)
    return reports
