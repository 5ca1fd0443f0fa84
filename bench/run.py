"""Run one ciprec benchmark workload and print its metrics.

    python3 bench/run.py --workload stream-100k --seed 1 --seconds 12 --trace 0

The corpus for (shape, seed) is generated in a child process, or taken
from the cache under ``bench/.run/corpus``. This process then runs the
workload against the package sources in ``src/``. It prints every metric
with its unit, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and the ``BENCHMARK.json`` metrics: the
end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``. A traced run also writes its spans as JSON lines to
``bench/.run/out``. ``--tiny`` swaps in the smoke test's small shapes.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = BENCH / ".run"


def _import_package():
    """Import ciprec from this checkout's sources, never from elsewhere."""
    if not (SRC / "ciprec" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ciprec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ciprec
    if Path(ciprec.__file__).resolve().parent != SRC / "ciprec":
        raise SystemExit(f"bench: imported ciprec from {ciprec.__file__}, not {SRC}")


def _blas_threads():
    """Thread count of the OpenBLAS that numpy bundles, if it has one."""
    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_facts() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ciprec benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="evaluation time, shared equally by the model kinds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test shapes")
    args = ap.parse_args(argv)
    # unwind on SIGTERM too, so child processes are stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    _import_package()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import corpus
    from spans import Tracer
    from workloads import WORKLOADS, Run, run_workload

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    shape = ("tiny-" + spec["dataset"][3:]) if args.tiny else spec["dataset"]
    path, gen = corpus.ensure(STATE / "corpus", shape, args.seed)
    fmt, split = corpus.SHAPES[shape]["fmt"], corpus.SHAPES[shape]["split"]

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    out = STATE / "out"
    work.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(enabled=bool(args.trace))
    run = Run(tracer, args.seed, args.seconds, work)
    try:
        run_workload(run, args.workload, path, fmt, split)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in contract[section]}
    missing = [n for n in wanted if n not in run.metrics]
    wrong = [n for n, u in wanted.items() if n in run.metrics and run.metrics[n][1] != u]
    if missing or wrong:
        raise SystemExit(f"bench: metrics missing {missing}, unit mismatch {wrong}")

    host = host_facts()
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "corpus": gen,
              "shape": dict(corpus.SHAPES[shape], name=shape),
              "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()}}
    if args.trace:
        tracer.write(out / f"spans-{tag}.jsonl")
    (out / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n",
                                           encoding="utf-8")

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; corpus {shape}: {gen['events']} events generated in "
          f"{gen['generate_s']:.2f} s by another process, outside every metric")
    print("# host " + json.dumps(host))
    for failure in run.failures:
        print(f"# FAILED {failure}")
    for name in sorted(run.metrics):
        value, unit = run.metrics[name]
        shown = int(value) if value.is_integer() else f"{value:.6g}"
        print(f"{name:36s} {shown} {unit}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {n: {"value": run.metrics[n][0], "unit": u} for n, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
