#!/usr/bin/env python3
"""Benchmark of superberezin, run from the root of a source checkout.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

One process, one thread, one caller: the items of a workload run closed
loop, back to back, in whole rounds.  Every item's answer is checked
exactly (see workloads.py).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured with no tracing;
* ``--trace 1``: the per-layer metrics.  The rounds run once untraced
  (for ``trace.overhead_ratio`` and the item-kind medians), once under the
  outside tracer (tracer.py), and round 0 once more under ``tracemalloc``.

Every timing is taken at the reference pace of pace.py: the wall time of
an item, or of set-up, rescaled by how fast a fixed probe ran meanwhile,
so that a shared host switching speed does not move the metrics.

The package is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
import pace  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8          # extra set-ups in child processes, for setup_s
TAIL_BEYOND = 10          # items that must lie beyond the tail percentile
OVERRUN = 1.3             # no new round starts after OVERRUN * --seconds
HOST_NOTE = ("bounds were set on a shared 2-vCPU Linux VM with Python 3.11.7, "
             "where wall times of the same code varied up to 2x from one "
             "minute or hour to the next; timings are at the reference pace")


def import_package():
    """Import superberezin from the checkout's src/, or exit with code 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "superberezin", "__init__.py")):
        print(f"error: no superberezin package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import superberezin
    if os.path.dirname(os.path.dirname(os.path.abspath(superberezin.__file__))) != src:
        print("error: superberezin was imported from outside the checkout",
              file=sys.stderr)
        sys.exit(2)
    return superberezin


def load_frozen() -> dict:
    with open(os.path.join(HERE, "frozen.json"), encoding="utf-8") as handle:
        return json.load(handle)


def rounds_for(workload: str, seconds: int) -> int:
    """Fixed number of rounds: about ``seconds`` of work at the parent."""
    return max(1, round(seconds / workloads.WORKLOADS[workload][1]))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND items beyond it;
    100 (the largest item) when that percentile would not pass the median,
    that is with fewer than 2 * TAIL_BEYOND items."""
    for q in range(99, 50, -1):
        if n - math.ceil(q * n / 100) >= TAIL_BEYOND:
            return q
    return 100


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


class Result(NamedTuple):
    round: int
    kind: str
    t0: float
    t1: float
    failure: str | None
    peak_kib: float


def run_items(items, r: int, tracer=None, memory=False) -> list[Result]:
    results = []
    for item in items:
        gc.collect()
        if tracer is not None:
            tracer.item = f"{r}:{item.kind}"
        if memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        try:
            failure = item.run()
        except Exception:
            failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
        t1 = time.perf_counter()
        peak = (tracemalloc.get_traced_memory()[1] - base) / 1024 if memory else 0.0
        if failure is not None:
            print(f"FAIL round {r} {item.kind}: {failure}", file=sys.stderr)
        results.append(Result(r, item.kind, t0, t1, failure, peak))
    return results


def run_rounds(plan, deadline: float, tracer=None, memory=False) -> list[Result]:
    """Run the plan's rounds, item after item.

    No round starts after ``deadline``, which bounds a run's wall time on a
    slow machine; the work is otherwise fixed by the plan."""
    results = []
    for r, items in enumerate(plan.rounds):
        if r and time.perf_counter() > deadline:
            print(f"warning: stopped after {r} rounds at the deadline",
                  file=sys.stderr)
            break
        results += run_items(items, r, tracer, memory)
    return results


def wall_seconds(t0: float, t1: float) -> float:
    return t1 - t0


def kind_medians(results: list[Result], seconds=wall_seconds) -> dict[str, float]:
    """Each item kind at the median of its passing repetitions, timed by
    ``seconds(t0, t1)``: wall time, or a pace.Pace's reference or own
    seconds when probes ran."""
    times: dict[str, list[float]] = {}
    for row in results:
        if row.failure is None:
            times.setdefault(row.kind, []).append(seconds(row.t0, row.t1))
    return {kind: statistics.median(values) for kind, values in times.items()}


def summarize(results: list[Result], seconds=wall_seconds) -> dict:
    """Timing metrics of one phase over the item kinds that passed, each
    at the median of its repetitions (see ``kind_medians``)."""
    medians = sorted(kind_medians(results, seconds).values())
    q = tail_percentile(len(medians))
    return {
        "attempted": len(results),
        "failed": sum(1 for row in results if row.failure is not None),
        "timed_s": sum(row.t1 - row.t0 for row in results),
        "items_per_s": len(medians) / sum(medians) if medians else 0.0,
        "item_ms_p50": 1000 * statistics.median(medians) if medians else 0.0,
        "item_ms_tail": 1000 * percentile(medians, q) if medians else 0.0,
        "tail_percentile": q,
        "kinds": len(medians),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def probe_setup(args) -> float:
    """Median-able set-up time measured in a fresh child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def work_dir(args, label: str) -> str:
    path = os.path.join(WORK, f"{args.workload}-{args.seed}-{label}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    inputs = None
    try:
        with pace.Pace() as host:
            package = import_package()
            frozen = load_frozen()
            setup = workloads.WORKLOADS[args.workload][0]
            rounds = rounds_for(args.workload, args.seconds)
            inputs = work_dir(args, "probe" if args.setup_probe else "inputs")
            plan = setup(args.seed, rounds, inputs, frozen)
            first_item = time.perf_counter()
            if not args.setup_probe:
                if args.trace:
                    plan_run = workloads.Plan(plan.rounds[:(len(plan.rounds) + 1) // 2])
                else:
                    plan_run = plan
                timed = run_rounds(plan_run, first_item + OVERRUN * args.seconds)
        setup_s = host.reference_seconds(started, first_item)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, timed, others = traced_metrics(args, package, frozen, plan,
                                                    timed, host)
        else:
            metrics = end_to_end(args, timed, setup_s, host)
            others = []
    finally:
        if inputs is not None:
            shutil.rmtree(inputs, ignore_errors=True)

    summary = summarize(timed + others)
    timed_summary = summarize(timed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_commit": git_commit(),
        "rounds_planned": rounds, "rounds_timed": len({row.round for row in timed}),
        "items_per_round": len(plan.rounds[0]), "items_timed": len(timed),
        "items_untimed": len(others),
        "tail_percentile": timed_summary["tail_percentile"],
        "tail_sample_count": timed_summary["kinds"], "sizes": plan.record,
        "pace": {"interval_s": pace.INTERVAL, "reference_probe_s": pace.REFERENCE_S,
                 "probes": len(host.durations),
                 "median_probe_s": host.median_probe_s()},
        "host_note": HOST_NOTE,
    }
    os.makedirs(WORK, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, f"record-{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           + ", ".join(sorted(set(units) ^ set(metrics))))
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(f"{'fail_ratio':34s} {summary['failed'] / summary['attempted']:14.6g} ratio")
    print(f"{len(timed)} timed items, {record['rounds_timed']} rounds of "
          f"{record['items_per_round']}; tail at p{record['tail_percentile']}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def end_to_end(args, results, own_setup_s: float, host) -> dict:
    summary = summarize(results, host.reference_seconds)
    setups = [own_setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": summary["items_per_s"],
        "item_ms_p50": summary["item_ms_p50"],
        "item_ms_tail": summary["item_ms_tail"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(args, package, frozen, plan, untraced, host):
    """Per-layer metrics.  ``untraced`` ran the first half of the rounds
    under ``host``'s probes; the traced and tracemalloc phases run none, so
    no probe time lands in a layer's self time."""
    setup = workloads.WORKLOADS[args.workload][0]
    tracing.import_layers(package)
    before = tracing.snapshot(package)
    tracer = tracing.Tracer()
    tracer.install(package)
    inputs = work_dir(args, "traced")
    try:
        tracer.item = "setup"
        traced_plan = setup(args.seed, len(plan.rounds), inputs, frozen)
        traced = run_rounds(traced_plan,
                            time.perf_counter() + 2 * OVERRUN * args.seconds, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(inputs, ignore_errors=True)
    if tracing.snapshot(package) != before:
        raise RuntimeError("the tracer left wrapped functions behind")

    tracemalloc.start()
    try:
        first_round = workloads.Plan(plan.rounds[:1])
        measured = run_rounds(first_round, 0.0, memory=True)
    finally:
        tracemalloc.stop()

    # overhead over the same rounds, untraced (first half, less its probes)
    # and traced, both in wall time
    base = summarize(untraced, host.own_seconds)
    traced_summary = summarize(traced)
    done = {row.round for row in untraced}
    overhead_base = summarize([row for row in traced if row.round in done])
    metrics = tracer.layer_metrics()
    metrics["trace.timed_s"] = traced_summary["timed_s"]
    metrics["trace.outside_s"] = traced_summary["timed_s"] - tracer.items_s
    metrics["trace.overhead_ratio"] = (overhead_base["items_per_s"] / base["items_per_s"]
                                       if base["items_per_s"] else 0.0)
    metrics["mem.item_peak_kib"] = max(row.peak_kib for row in measured)
    medians = kind_medians(untraced, host.reference_seconds)
    for kinds in (w[2] for w in workloads.WORKLOADS.values()):
        for kind, name in kinds.items():
            metrics[name] = 1000 * medians.get(kind, 0.0)
    os.makedirs(WORK, exist_ok=True)
    tracer.write_spans(os.path.join(
        WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return metrics, traced, untraced + measured


if __name__ == "__main__":
    sys.exit(main())
