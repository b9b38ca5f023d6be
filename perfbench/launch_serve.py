"""Run ``repro serve`` with the benchmark's span recorder installed.

    python3 perfbench/launch_serve.py --spans OUT.jsonl --summary OUT.json \\
        -- [--log-level LEVEL] serve --world WORLD [serve options]

Everything after ``--`` goes to the ``repro`` command line unchanged.
The server runs until this process's standard input is closed; the
launcher then writes every span (one JSON object a line) and a
per-layer summary, and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import probes  # noqa: E402
from tracing import Tracer, layer_summary  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    repro_args = args.repro_args[1:] if args.repro_args[:1] == ["--"] else args.repro_args

    tracer = Tracer()
    missing = probes.install(tracer, probes.SERVE + probes.LINKER + probes.SETUP)
    from repro.cli import main as repro_main

    server = threading.Thread(target=repro_main, args=(repro_args,), daemon=True)
    server.start()
    sys.stdin.read()  # the benchmark closes our stdin to stop the server

    spans = tracer.write(args.spans)
    summary = {
        "ops": layer_summary(tracer.layers(roots=["serve.handlers.handle"])),
        "setup": layer_summary(tracer.layers()),
        "counts": dict(tracer.counts),
        "spans": spans,
        "skipped_roots": tracer.skipped_roots,
        "missing_probes": missing,
    }
    with open(args.summary, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, sort_keys=True)
    sys.stdout.flush()
    # The server's threads are daemons; leave without waiting for them.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
