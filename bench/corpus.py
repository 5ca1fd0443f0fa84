"""Seeded synthetic corpora for the benchmark, cached per (shape, seed).

Each corpus is one ``generate_events`` call, run in a child process so
that neither its time nor the generator's event list counts towards a
workload's metrics. It is written in the real format of the dataset its
shape imitates, in the order ``generate_events`` returns it (by
timestamp), and the workload reads it back with ``parse_events``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# name -> generator shape, file format and split (train, valid, test)
SHAPES = {
    "ml-100k": dict(n_users=943, n_items=1682, n_events=100_000,
                    fmt="ml-tab", split=(75_000, 5_000, 20_000)),
    "ml-1m": dict(n_users=6040, n_items=3706, n_events=1_000_209,
                  fmt="ml-dcolon", split=(970_209, 10_000, 20_000)),
    # tiny stand-ins for the smoke test
    "tiny-100k": dict(n_users=60, n_items=150, n_events=4_000,
                      fmt="ml-tab", split=(2_800, 200, 1_000)),
    "tiny-1m": dict(n_users=80, n_items=200, n_events=5_000,
                    fmt="ml-dcolon", split=(3_800, 200, 1_000)),
}

_SEP = {"ml-tab": "\t", "ml-dcolon": "::"}


def _generate(shape: str, seed: int, out: Path) -> None:
    """Write the ``generate_events`` log for (shape, seed) to ``out``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from ciprec.synthetic import generate_events

    spec = SHAPES[shape]
    rows = generate_events(seed=seed, n_users=spec["n_users"],
                           n_items=spec["n_items"], n_events=spec["n_events"])
    sep = _SEP[spec["fmt"]]
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}{sep}{i}{sep}{r}{sep}{t}\n" for u, i, r, t in rows)


def ensure(cache: Path, shape: str, seed: int) -> tuple[Path, dict]:
    """Path of the corpus for (shape, seed) and its generation record,
    generating it in a child process on a cache miss."""
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"{shape}-s{seed}.dat"
    meta_path = path.with_suffix(".json")
    if path.is_file() and meta_path.is_file():
        return path, json.loads(meta_path.read_text(encoding="utf-8"))

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--shape", shape, "--seed", str(seed), "--out", str(tmp)])
    try:
        if proc.wait():
            raise RuntimeError(f"corpus generation for {shape} seed {seed} "
                               f"failed with exit code {proc.returncode}")
        os.replace(tmp, path)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        tmp.unlink(missing_ok=True)
    meta = {"shape": shape, "seed": seed, "fmt": SHAPES[shape]["fmt"],
            "events": SHAPES[shape]["n_events"],
            "generate_s": time.perf_counter() - t0, "bytes": path.stat().st_size}
    meta_tmp = meta_path.with_name(f"{meta_path.name}.{os.getpid()}.tmp")
    meta_tmp.write_text(json.dumps(meta) + "\n", encoding="utf-8")
    os.replace(meta_tmp, meta_path)
    return path, meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="generate one benchmark corpus")
    ap.add_argument("--shape", choices=sorted(SHAPES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    _generate(args.shape, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
