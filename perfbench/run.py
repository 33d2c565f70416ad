"""Closed-loop benchmark of ompkit's public API: one caller, one process.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload solve_mixed --seed 1 --seconds 10 --trace 0

The caller sends the next operation only when the previous one has
returned.  Inputs come from ``--seed`` and are generated in rounds of a fixed
composition outside the timed region; the loop runs whole rounds until the
timed operations add up to ``--seconds``.  Every output is then checked by
``verify.py``, also outside the timed region.  Inputs of the library's
known defects are kept out of the timed stream and attempted, untimed, as
probes once it has ended (see ``workloads.py``).

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it wraps ompkit's public functions
(see ``spans.py``), reports the per-layer metrics, writes the spans to
``perfbench/out/`` and measures the tracing overhead by replaying each
round untraced.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's context (machine, versions, input properties, errors by class).
"""

from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# an operation still running after this long is stopped and counts as
# failed: a miss of the latency limit.  The slowest timed operation (solve
# on a 14-gon) takes about 1 s on a 2-core x86_64 VM.
OP_TIMEOUT_S = 5.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_ompkit():
    """Import ompkit afresh from the repository's ``src``.

    Previously imported ompkit modules are dropped first, so each set-up
    pays the import again.  Returns the package with ``cli`` loaded.
    """
    for name in [m for m in sys.modules if m == "ompkit" or m.startswith("ompkit.")]:
        del sys.modules[name]
    ok = importlib.import_module("ompkit")
    importlib.import_module("ompkit.cli")
    if Path(ok.__file__).resolve().parent != SRC / "ompkit":
        raise ImportError(f"ompkit imported from {ok.__file__}, not from {SRC}")
    return ok


def set_up(name: str, seed: int, workdir: Path):
    """Import, first round of inputs and warm-up; returns (workload, round 0)."""
    ok = import_ompkit()
    wl = workloads.WORKLOADS[name](ok, np.random.default_rng(seed), workdir)
    first = wl.round(0)
    for item in wl.warmup_items():
        output = wl.call(item)
        if wl.failure(output) is None:
            wl.check(item, output)
    return wl, first


class FastestCpu:
    """Keeps the process on the CPU that currently runs a fixed calibration
    loop fastest.

    On the 2-vCPU x86_64 VM the benchmark was tuned on, one vCPU at a time
    ran about 1.5x slower than the other (load from outside the VM), and
    which one changed every few tens of seconds.  Following the faster one
    roughly halved the run-to-run spread of the latency percentiles.  The
    choice is made between operations, outside the timed region, at most
    every ``EVERY_S`` seconds, among at most four allowed CPUs.
    """

    EVERY_S = 0.25

    def __init__(self):
        allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else ()
        self.cpus = sorted(allowed)[:4]
        self.last = -math.inf
        self.probe = np.random.default_rng(0).normal(size=(4, 6))

    def _loop_time(self) -> float:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(60):
                np.linalg.pinv(self.probe)
            best = min(best, time.perf_counter() - start)
        return best

    def follow(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() - self.last < self.EVERY_S:
            return
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = self._loop_time()
        os.sched_setaffinity(0, {min(times, key=times.get)})
        self.last = time.perf_counter()


class Record:
    """One timed operation; it keeps the input's properties, not the input."""

    __slots__ = ("props", "group", "round", "seconds", "error", "wrong")

    def __init__(self, item, round_, seconds, error, wrong):
        self.props, self.group, self.round, self.seconds = item.props, item.group, round_, seconds
        self.error, self.wrong = error, wrong


def run_op(wl, item, tracer=None):
    """Time one operation; returns (seconds, output, error label)."""
    if tracer is not None:
        tracer.on = True
    start = time.perf_counter()
    try:
        with workloads.time_limit(OP_TIMEOUT_S):
            output = wl.call(item)
        error = None
    except Exception as exc:  # a failed operation is a result, not a crash
        output, error = None, type(exc).__name__
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.on = False
    if error is None:
        error = wl.failure(output)
    return seconds, output, error


def measure(wl, first: list, seconds: float, cpu: FastestCpu, tracer=None):
    """Run whole rounds until the timed operations add up to ``seconds``.

    Returns the records and, with a tracer, the untraced busy time of each
    round: a traced round is replayed at once with the wrappers removed, so
    the pair sees the same load from other processes.
    """
    records, replays, items, timed, r = [], [], first, 0.0, 0
    while True:
        if tracer is not None:
            tracer.install()
        for item in items:
            cpu.follow()
            if tracer is not None:
                tracer.op = len(records)
            dt, output, error = run_op(wl, item, tracer)
            wrong = None
            if error is None:
                try:
                    wrong = wl.check(item, output)
                except Exception as exc:  # the output could not be verified
                    wrong = f"verification raised {type(exc).__name__}: {exc}"
            records.append(Record(item, r, dt, error, wrong))
            timed += dt
        if tracer is not None:
            tracer.uninstall()
            replays.append(sum(run_op(wl, item)[0] for item in items))
        r += 1
        if timed >= seconds:
            return records, replays
        items = wl.round(r)


def busy(records) -> float:
    return sum(r.seconds for r in records)


def per_round(records, value) -> list:
    """``value(records of the round)`` for every round, in order."""
    rounds: dict = {}
    for rec in records:
        rounds.setdefault(rec.round, []).append(rec)
    return [value(recs) for _, recs in sorted(rounds.items())]


def bucket(n: int) -> str:
    hi = 4
    while n > hi:
        hi *= 2
    return f"{hi // 2 + 1}-{hi}" if hi > 4 else "2-4"


def input_properties(records) -> dict:
    """Histograms and shares of the properties of the inputs run."""
    total = len(records)
    props: dict = {}
    for rec in records:
        for key, value in rec.props.items():
            label = bucket(value) if key == "n" else value
            props.setdefault(key, Counter())[str(label)] += 1
    out = {"n_buckets": dict(sorted(props.pop("n", {}).items(), key=lambda kv: int(kv[0].split("-")[0])))}
    ks = props.pop("k", Counter())
    ks["unknown"] = total - sum(ks.values())
    out["identified_k"] = {k: v for k, v in sorted(ks.items()) if v}
    for key, counts in props.items():
        out[f"{key}_share"] = {label: c / total for label, c in sorted(counts.items())}
    return out


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without starting git;
    "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(records, setups) -> dict:
    lat_ms = [1e3 * r.seconds for r in records]
    p50, p90 = np.percentile(lat_ms, [50, 90])
    # rounds share one composition, so their rates are samples of one law;
    # the median keeps a rare very slow op, or a burst of load from other
    # processes, out of the figure
    rates = per_round(records, lambda recs: sum(r.error is None for r in recs) / busy(recs))
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    sys.path.insert(0, str(SRC))
    try:
        import_ompkit()
    except ImportError as exc:
        print(f"perfbench: cannot import ompkit: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    cpu = FastestCpu()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            cpu.follow()
            start = time.perf_counter()
            wl, first = set_up(args.workload, args.seed, workdir)
            setups.append(time.perf_counter() - start)

        if args.trace:
            tracer = spans.Tracer()
            records, replays = measure(wl, first, args.seconds, cpu, tracer)
            metrics = spans.layer_metrics(
                tracer.spans, [r.seconds for r in records], [r.group for r in records]
            )
            traced = per_round(records, busy)
            metrics["trace.overhead_share"] = statistics.median(
                t / u for t, u in zip(traced, replays)
            ) - 1.0
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            records, _ = measure(wl, first, args.seconds, cpu)
            metrics = end_to_end(records, setups)
        for item in wl.probe_items():
            wl.probe(item, OP_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if r.error is not None)
    wrong = [r for r in records if r.wrong is not None]
    defects = {"tried": wl.defect_ops, "failed": sum(wl.defects.values()), "by_label": dict(wl.defects)}
    if args.trace:
        metrics["defects.tried"] = defects["tried"]
        metrics["defects.failed_share"] = defects["failed"] / max(defects["tried"], 1)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are emitted or declared, not both"
        )
    context = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "rounds": records[-1].round + 1,
        "timed_s": busy(records),
        "latency_samples": attempted,
        "setup_runs_s": setups,
        "error_share": failed / attempted,
        "wrong_share": len(wrong) / attempted,
        "errors_by_class": dict(Counter(r.error for r in records if r.error is not None)),
        "wrong_examples": [r.wrong for r in wrong[:5]],
        "known_defects": defects,
        "inputs": input_properties(records),
    }
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1), encoding="utf-8"
    )
    for name in units:
        print(f"{args.workload:16s} {name:48s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
