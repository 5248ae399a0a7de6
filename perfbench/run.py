"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fs-read --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs a
traced copy of the first round and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for every metric's definition.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

from tracing import SpanRecorder, counters, instrument, layer_metrics, package_self_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# setup_s is the median of several set-ups: at least SETUPS_MIN, more
# while they total under SETUP_MIN_S seconds, at most SETUPS_MAX.
SETUPS_MIN, SETUPS_MAX, SETUP_MIN_S = 3, 15, 4.0
SPAN_DIR = os.path.join(ROOT, ".perfbench")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def sim_metrics(rnd) -> dict:
    """Simulated-clock figures of one round (repeat exactly per seed)."""
    lat = sorted(rnd.latencies_ns)
    return {
        "sim_ops_per_s": (rnd.ops / (rnd.sim_ns / 1e9), "1/s"),
        "sim_p50_us": (percentile(lat, 50) / 1e3, "us"),
        "sim_p99_us": (percentile(lat, 99) / 1e3, "us"),
    }


def build(cls, seed: int):
    """A set-up workload and its set-up wall time."""
    gc.collect()
    t0 = time.perf_counter()
    workload = cls(seed)
    workload.setup()
    return workload, time.perf_counter() - t0


def set_up(cls, seed: int, once: bool):
    """The workload to measure, set up once or SETUPS_MIN..SETUPS_MAX
    times (each discarded but the last), and every set-up's time."""
    times = []
    while True:
        workload, took = build(cls, seed)
        times.append(took)
        enough = len(times) >= SETUPS_MIN and sum(times) >= SETUP_MIN_S
        if once or enough or len(times) == SETUPS_MAX:
            workload.prepare_check()
            return workload, times
        workload.shutdown()
        del workload


def measure(workload, seconds: float, rounds: list) -> None:
    """Append (round, wall seconds) to ``rounds`` until ``seconds`` of
    host time have passed (at least one round)."""
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        rnd = workload.run_round()
        rounds.append((rnd, time.perf_counter() - t0))
        if time.perf_counter() >= deadline:
            return


def traced_round(cls, seed: int, untraced_s: float, path: str):
    """Run the first round again on a fresh system with spans, engine
    event counting and cProfile on; returns (round, per-layer metrics)."""
    workload, _ = build(cls, seed)
    workload.prepare_check()
    rec = SpanRecorder(workload.engine)
    instrument(workload, rec)
    workload.engine.count_events()
    before = counters(workload)
    start_ns = workload.engine.now
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    rnd = workload.run_round()
    prof.disable()
    traced_s = time.perf_counter() - t0
    after = counters(workload)
    workload.shutdown()
    metrics = layer_metrics(
        ops=rnd.ops,
        events=workload.engine.events,
        self_ns=rec.self_ns(start_ns),
        host=package_self_s(prof),
        before=before,
        after=after,
        n_spans=len(rec.spans),
        traced_s=traced_s,
        untraced_s=untraced_s,
    )
    rec.write(path)
    return rnd, metrics


def failed_run(attempted: int) -> int:
    """Report a run that raised: every op of it counts as failed."""
    print(json.dumps({"correct": False, "attempted": attempted,
                      "failed": attempted, "metrics": {}}))
    return 1


def run(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"perfbench: cannot import the program: {err}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    try:
        workload, setup_times = set_up(cls, args.seed, once=bool(args.trace))
    except Exception:  # noqa: BLE001 - any failure fails the run
        traceback.print_exc()
        return failed_run(cls.clients * cls.ops_per_client)

    rounds = []
    try:
        measure(workload, args.seconds, rounds)
    except Exception:  # noqa: BLE001 - any failure fails the run
        traceback.print_exc()
        return failed_run((len(rounds) + 1) * workload.ops_per_round)
    workload.shutdown()
    attempted = sum(rnd.ops + rnd.failed for rnd, _ in rounds)
    failed = sum(rnd.failed for rnd, _ in rounds)
    first = rounds[0][0]
    correct = failed == 0
    sim = sim_metrics(first) if first.ops else {}
    rates = [rnd.ops / took for rnd, took in rounds]
    host_rate = sum(rnd.ops for rnd, _ in rounds) / sum(t for _, t in rounds)
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{workload.ops_per_round} ops ({cls.bytes_per_op} bytes per op); "
          f"first round {first.ops} ok ops over {first.sim_ns} simulated ns; "
          f"op_error_rate {failed}/{attempted}")
    print(f"# host ops/s per round: {', '.join(f'{r:.1f}' for r in rates)}; "
          f"set-ups (s): {', '.join(f'{t:.3f}' for t in setup_times)}")

    if not args.trace:
        metrics = dict(sim)
        metrics["host_ops_per_s"] = (host_rate, "1/s")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    else:
        workload_ops = workload.ops_per_round
        del workload
        path = os.path.join(
            SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.json"
        )
        try:
            traced, metrics = traced_round(cls, args.seed, rounds[0][1], path)
        except Exception:  # noqa: BLE001 - any failure fails the run
            traceback.print_exc()
            return failed_run(attempted + workload_ops)
        attempted += traced.ops + traced.failed
        failed += traced.failed
        same = traced.failed == 0 and sim_metrics(traced) == sim
        if not same:
            print("# traced round's simulated metrics differ from the "
                  "untraced round's", file=sys.stderr)
        correct = correct and same
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
