"""Run every workload of ``BENCHMARK.json`` and check what each run emits.

Usage, from the root of the repository::

    python3 perfbench/suite.py                # smoke: 1 s per workload, both modes
    python3 perfbench/suite.py --seconds 10   # the full benchmark, all workloads

Each workload runs in its own process, once untraced and once traced.  The
script prints every metric with its unit and fails (exit 1) unless each run
exits 0 and its last line is the result object with exactly the declared
metrics: the end-to-end ones untraced, the per-layer ones traced.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def problems(result: dict, declared: list) -> list:
    """What is wrong with one run's result object."""
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
        return found
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        found.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        found.append(f"failed {result['failed']!r}")
    if result["correct"] is not True:
        found.append("outputs failed verification")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        found.append(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            found.append(f"{name} has no numeric value")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            found = [f"exit code {done.returncode}: {done.stderr.strip()[-400:]}"] if done.returncode else []
            if not found:
                lines = done.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                    context = json.loads(lines[-2])
                except (IndexError, json.JSONDecodeError) as exc:
                    found = [f"no result line: {exc}"]
                else:
                    found = problems(result, declared)
                    for name, metric in result["metrics"].items():
                        print(f"{workload:16s} trace={trace} {name:46s} {metric['value']:14.6g} {metric['unit']}")
                    print(f"{workload:16s} trace={trace} attempted={result['attempted']} "
                          f"failed={result['failed']} errors={context['errors_by_class']} "
                          f"known_defects={context['known_defects']}")
            for problem in found:
                print(f"FAIL {workload} trace={trace}: {problem}")
            failures += bool(found)
    print("all runs OK" if not failures else f"{failures} run(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
