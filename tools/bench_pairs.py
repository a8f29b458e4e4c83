"""Alternating pairs of benchmark runs on two sphere-nav checkouts.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2]
                                [--pairs 10] [--out FILE]

PARENT and CHANGE are source trees.  Each run is that checkout's own
`bench/run.py --workload W --seed k --trace 0`, started in the checkout with
the same interpreter; nothing from either checkout is imported here.  Seeds
run 1 to --pairs; odd seeds run the parent first, even seeds the change.

Before the pairs, both `src/` trees are byte-compiled and each side runs once
at seed 1, untimed, so both start from the same bytecode and file caches:
`bench/run.py` writes no bytecode itself, and a side that imports from
source pays for it in `peak_rss_mb`.

Per end-to-end metric of the change's BENCHMARK.json it prints both medians,
the parent's quartile spread, the pairs the change wins by the metric's
`better` (ties count for neither side), the median paired ratio
change/parent, and whether the change's median is worse than the parent's by
more than the metric's `bound` (a fraction of the parent's median).  A run
reporting `correct: false` stops the tool with exit status 1.  --out writes
every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench(checkout: Path, workload: str, seed: int) -> tuple[dict, str]:
    """(the run's closing JSON object, its `# env` line)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: workload {workload} seed {seed} is not correct:\n"
                         + "\n".join(line for line in lines if line.startswith("# FAILED")))
    env = next((line[len("# env "):] for line in lines if line.startswith("# env ")), "")
    return result, env


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: medians, parent spread, change wins and the bound verdict."""
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(by_seed.items()) if len(p) == 2]
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        q1, parent_median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        change_median = statistics.median(change)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        worse = change_median - parent_median if lower else parent_median - change_median
        out[name] = {
            "pairs": len(pairs),
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_quartile_spread": q3 - q1,
            "change_better_pairs": wins,
            "median_paired_ratio": statistics.median(c / p for p, c in zip(parent, change)),
            "worse_than_bound": worse > m["bound"] * abs(parent_median),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    for root in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                       check=True, stdout=subprocess.DEVNULL)
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    env = ""
    for wl in args.workload:
        for root in sides.values():
            env = bench(root, wl, 1)[1]
        runs[wl] = []
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result, _ = bench(sides[side], wl, seed)
                row = {"seed": seed, "side": side, "attempted": result["attempted"],
                       "failed": result["failed"]}
                row.update({m["name"]: result["metrics"][m["name"]]["value"] for m in metrics})
                runs[wl].append(row)
                print(f"{wl} seed {seed:2d} {side:6s} "
                      + " ".join(f"{m['name']}={row[m['name']]:.6g}" for m in metrics),
                      flush=True)
        summary[wl] = summarize(runs[wl], metrics)
        print(f"\n{wl}: {summary[wl][metrics[0]['name']]['pairs']} pairs")
        print(f"{'metric':14s} {'parent':>12s} {'change':>12s} {'parent IQR':>12s} "
              f"{'wins':>5s} {'ratio':>7s}  worse than bound")
        for m in metrics:
            s = summary[wl][m["name"]]
            print(f"{m['name']:14s} {s['parent_median']:12.6g} {s['change_median']:12.6g} "
                  f"{s['parent_quartile_spread']:12.6g} {s['change_better_pairs']:5d} "
                  f"{s['median_paired_ratio']:7.4f}  {s['worse_than_bound']}")
        print(flush=True)

    if args.out:
        args.out.write_text(json.dumps({
            "command": (f"python3 bench/run.py --workload <w> --seed <s> --trace 0 "
                        f"(seeds 1-{args.pairs}, each side from its own checkout; odd "
                        f"seeds run the parent first, even seeds the change)"),
            "environment": env,
            "pairs": runs,
            "summary": summary,
        }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
