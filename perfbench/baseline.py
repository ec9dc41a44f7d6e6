"""Run the benchmark over several seeds and summarise the spread.

Usage (from the repository root):
    python3 perfbench/baseline.py --workload desk field144 chains8 archive --seeds 10

For each workload it runs perfbench/run.py untraced once per seed (0, 1, ...),
one run at a time, and prints a Markdown table per workload: the median and
quartiles of each end-to-end metric over the seeds, and its spread (the
distance between the quartiles of ``statistics.quantiles(values, n=4)`` over
the median) against a third of the metric's bound in BENCHMARK.json. A second
table lists each method's quality figures (acceptance, tau, n_eff, band
ratio, ESS/s) for every seed. Every run's report stays in
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def fmt(x) -> str:
    return "-" if x is None else f"{x:.4g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = range(args.seeds)

    steady = True
    for workload in args.workload:
        results = [run_once(workload, s, bench["run_seconds"]) for s in seeds]
        attempted = sum(r["attempted"] for r, _ in results)
        failed = sum(r["failed"] for r, _ in results)
        correct = all(r["correct"] for r, _ in results)
        print(f"\n### {workload} (seeds {seeds.start}-{seeds.stop - 1}, "
              f"{attempted} operations, {failed} failed, correct={correct})\n")
        print("| metric | unit | median | q1 | q3 | spread | bound/3 |")
        print("|---|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r, _ in results]
            if any(v is None for v in values):
                steady = False
                print(f"| {name} | {m['unit']} | - | - | - | - | - |")
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            limit = m["bound"] / 3
            steady = steady and spread <= limit
            print(f"| {name} | {m['unit']} | {fmt(med)} | {fmt(q1)} | {fmt(q3)} | "
                  f"{fmt(spread)} | {fmt(limit)} |")
        print("\n| seed | method | acceptance | tau | n_eff | band ratio | ESS/s |")
        print("|---|---|---|---|---|---|---|")
        for s, (_, report) in zip(seeds, results):
            for method, q in report["quality"].items():
                print(f"| {s} | {method} | {fmt(q.get('acceptance'))} | {fmt(q.get('tau'))} | "
                      f"{fmt(q.get('n_eff'))} | {fmt(q.get('band_ratio'))} | {fmt(q.get('ess_per_s'))} |")
        sys.stdout.flush()
    print(f"\nall end-to-end spreads within a third of their bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
