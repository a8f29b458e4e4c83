"""Run bench/run.py over several seeds and summarise each metric's spread.

    python3 bench/seeds.py --workload star-s3 --seeds 1-10 [--out FILE]

For every metric it prints the median over the seeds and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of that median: the spread a metric's bound in BENCHMARK.json is
checked against.  Next to it, the same for the metrics computed from the
wall-clock as measured, before run.py rescales it.  ``--out`` writes the
per-seed values, step counts and band entries and the summary as JSON.
Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WALL_MARK = "as measured: "   # run.py's line with the metrics from raw wall-clock


def spread_of(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    args = p.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--trace", "0"],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        steps = next(line.split(":", 1)[1].strip() for line in lines
                     if line.startswith("# steps per trajectory:"))
        wall = [json.loads(line.split(WALL_MARK, 1)[1]) for line in lines
                if WALL_MARK in line]
        band = [line.split(":", 1)[1].strip() for line in lines
                if line.startswith("# band:")]
        runs.append({"seed": seed, "steps": json.loads(steps), **result,
                     **({"wall_clock": wall[0]} if wall else {}),
                     **({"band": band[0]} if band else {})})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         **spread_of([r["metrics"][name]["value"] for r in runs])}
        if all("wall_clock" in r for r in runs):
            summary[name]["wall_clock"] = spread_of([r["wall_clock"][name] for r in runs])
        print(f"{name:30s} " + "  ".join(
            f"{label} median {s['median']:12.6g} spread {s['spread']:.4f}"
            for label, s in (("", summary[name]),
                             ("wall-clock", summary[name].get("wall_clock")))
            if s is not None))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "runs": runs,
                       "summary": summary}, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
