"""Benchmark of the quasiplanar package: one workload per run.

    python3 bench/run.py --workload {laws,construct,ingest,enumerate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh child
process (worker.py) so that set-up time counts from process start and peak
memory is the workload's alone.  The last line of stdout is one JSON
object: correct, attempted, failed, and the metrics, end-to-end ones with
--trace 0 and per-layer ones with --trace 1.  Lines before it repeat the
metrics for people, with fail_frac, the sample count and the environment.
A full record goes to bench/out/, and a traced run's spans next to it.

bench/steady.py repeats runs over seeds and checks their spread against the
bounds in BENCHMARK.json; bench/test_smoke.py runs every workload at tiny
sizes (python3 -m pytest -q bench/test_smoke.py).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("laws", "construct", "ingest", "enumerate")
TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args()
    if not (ROOT / "src" / "quasiplanar" / "__init__.py").is_file():
        print(f"no package to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} ran past {TIMEOUT_S}s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"workload {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
