"""Run the benchmark on several seeds and record the result as a BENCH file.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/BENCH_1.json

Each workload runs untraced once per seed, then traced once at the first
seed. The file keeps every run's end-to-end metrics and, per metric, the
median, quartiles and spread ((q3 - q1) / median, statistics.quantiles).
Compare two commits with files made by the same benchmark and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["host"] = json.loads(lines[0].removeprefix("host "))
    return result


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", action="append", help="repeatable [default: all]")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for w in WORKLOADS:
        if args.workload and w.name not in args.workload:
            continue
        runs = [bench(w.name, seed, args.seconds, 0) for seed in args.seeds]
        traced = bench(w.name, args.seeds[0], args.seconds, 1)
        record["host"] = traced.pop("host")
        names = runs[0]["metrics"]
        record["workloads"][w.name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": {
                name: dict(
                    summary([r["metrics"][name]["value"] for r in runs]),
                    unit=names[name]["unit"],
                    runs=[r["metrics"][name]["value"] for r in runs],
                )
                for name in names
            },
            "per_layer": traced["metrics"],
        }
        print(w.name, {n: round(v["spread"], 3) for n, v in record["workloads"][w.name]["end_to_end"].items()})
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
