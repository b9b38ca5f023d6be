#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve-ladder --seed 1 --seconds 30 --trace 0

Workloads (see the module of each for what it drives):

* ``serve-ladder``    -- ``repro serve`` in its own process under an
  open-loop Poisson rate ladder, then a closed loop (serve_ladder.py);
* ``stream-feedback`` -- the ``repro stream`` path in-process: ingest,
  link every mention, confirm each top entity (stream_feedback.py);
* ``index-build``     -- compact 2-hop cover build on a 5k-user streaming
  world, then sampled reachability queries (index_build.py).

``--workload all`` runs every workload in turn.  Inputs depend only on
``--seed``.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics (metrics.py); with ``--trace 1``
a separate traced run records spans around calls into each layer and
reports the per-layer metrics instead.  The lines before it are the full
report: environment stamp, sample counts, ladder steps and checks.

Run from the root of a checkout; the program is imported from ``src/``.
Working files go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

# BLAS runs single-threaded in this process and every process it starts.
# On a small shared machine a second BLAS thread sometimes finds a free
# core and sometimes not, which made the closure builds' times bimodal
# from one run to the next; single-threaded, their speed also follows the
# reference loop that scales timings.  Set before anything imports numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from common import environment_stamp  # noqa: E402
from metrics import END_TO_END, PER_LAYER, complete_layers, result_line  # noqa: E402

WORKLOADS = ("serve-ladder", "stream-feedback", "index-build")


def _workload(name: str, workdir: str, seed: int, seconds: float):
    if name == "serve-ladder":
        from serve_ladder import ServeLadder

        return ServeLadder(ROOT, workdir, seed, seconds)
    if name == "stream-feedback":
        from stream_feedback import StreamFeedback

        return StreamFeedback(ROOT, workdir, seed, seconds)
    from index_build import IndexBuild

    return IndexBuild(ROOT, workdir, seed, seconds)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # Traced runs keep their span files, one directory per workload and seed.
    tag = "trace" if trace else str(os.getpid())
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"{name}-{seed}-{tag}")
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    try:
        workload = _workload(name, workdir, seed, seconds)
        outcome = workload.run_traced() if trace else workload.run()
    finally:
        if not trace:
            shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        values = complete_layers(outcome["layers"])
        units = {metric: unit for metric, (unit, _) in PER_LAYER.items()}
    else:
        values = outcome["metrics"]
        missing = sorted(set(END_TO_END) - set(values))
        if missing:
            raise RuntimeError(f"workload {name} did not measure {', '.join(missing)}")
        units = {metric: unit for metric, (unit, _, _) in END_TO_END.items()}
    return {
        "workload": name,
        "trace": trace,
        "wall_s": time.perf_counter() - started,
        "report": outcome["report"],
        "result": result_line(values, units, outcome["attempted"], outcome["failed"], outcome["correct"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {os.path.join(ROOT, 'src')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    stamp = environment_stamp(ROOT, args.seed)
    results = []
    for name in names:
        document = run_one(name, args.seed, args.seconds, bool(args.trace))
        document["environment"] = stamp
        print(json.dumps({k: v for k, v in document.items() if k != "result"}, sort_keys=True, default=str))
        results.append(document["result"])
    if len(results) == 1:
        final = results[0]
    else:
        # One line for all workloads: metrics prefixed by the workload name.
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in zip(names, results)
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
