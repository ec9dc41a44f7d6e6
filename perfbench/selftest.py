"""Self-test of the benchmark harness at tiny sizes (under a minute).

Usage (from the repository root):
    python3 perfbench/selftest.py

It runs run.py's main on a 3x3-grid workload, untraced and traced, and
checks that the final line names every metric of BENCHMARK.json with its unit
and a value. It then runs a workload whose config has an unknown key: every
invocation exits 2, and the harness must count each as a failed operation and
still print a result. Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = run.Workload(
    n_samples=dict.fromkeys(run.METHODS, 40),
    target={"rows": 3, "cols": 3, "extent_m": [3000.0, 1500.0]},
    sampler={"store_samples": True, "thin": 1},
    chains=2,
)
BAD = run.Workload(n_samples=dict.fromkeys(run.METHODS, 40), target={"no_such_key": 1})


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def run_main(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    run.WORKLOADS["selftest-tiny"] = TINY
    run.WORKLOADS["selftest-bad"] = BAD
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run_main("selftest-tiny", trace)
        check(code == 0, f"trace {trace}: exit code 0")
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"trace {trace}: result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"trace {trace}: {result['attempted']} operations, none failed")
        expected = {m["name"]: m["unit"] for m in bench[section]}
        got = result["metrics"]
        check(list(got) == list(expected), f"trace {trace}: every {section} metric printed by name")
        check(all(got[n]["unit"] == u for n, u in expected.items()), f"trace {trace}: units match")
        missing = [n for n, v in got.items() if not isinstance(v["value"], (int, float))]
        check(not missing, f"trace {trace}: every metric has a value {missing or ''}")

    code, result = run_main("selftest-bad", 0)
    check(code == 0, "unknown config key: harness exits 0 and prints a result")
    check(result["attempted"] >= 1 and result["failed"] == result["attempted"] and not result["correct"],
          f"unknown config key: {result['failed']} of {result['attempted']} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
