"""One workload in a fresh process; started by run.py, which passes --t0.

Imports the package from ``src/`` of the checkout this file sits in and
refuses to run against any other copy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import quasiplanar

    if Path(quasiplanar.__file__).resolve().parent != ROOT / "src" / "quasiplanar":
        sys.exit(f"imported quasiplanar from {quasiplanar.__file__}, not from {ROOT / 'src'}")

    from qpbench.harness import run

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    record = run(
        args.workload, args.seed, args.seconds, args.trace, args.t0, ROOT,
        tiny=args.tiny, spans_path=OUT / f"spans-{stem}.tsv.gz" if args.trace else None,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"workload={record['workload']} seed={args.seed} trace={args.trace} "
        f"rounds={record['rounds']} ops/round={record['ops_per_round']} item={record['item']!r}"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:<48} {m['value']!r} {m['unit']}")
    print(f"  {'fail_frac':<48} {record['fail_frac']!r} ratio "
          f"({record['failed']} of {record['attempted']} ops)")
    print(f"  {'op samples':<48} {record['samples']}")
    if "unscaled" in record:
        print(f"  timed-phase metrics divided by machine slowdown {record['slowdown']!r} "
              f"({record['reference_samples']} reference samples); unscaled: "
              + ", ".join(f"{k} {v!r}" for k, v in record["unscaled"].items()))
    if "shares" in record:
        top = record["shares"]["dominant_function"]
        print(f"  dominant self time: {top} "
              f"({record['shares']['functions'][top]:.1%} of traced op time)")
        for layer, share in record["shares"]["layers"].items():
            print(f"  layer share {layer:<12} {share:.1%}")
    print("env " + json.dumps(record["env"]))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()
