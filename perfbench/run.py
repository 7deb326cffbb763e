"""Run one workload of the serving benchmark and print its metrics.

    python3 perfbench/run.py --workload grid-sharded-failures --seed 1 \\
        --seconds 40 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric, and a Chrome trace of
the run plus its per-layer self-time table are written under
``.perfbench/``.  The exit code is 0 only when every answer was
verified correct and the open-loop generator kept its schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ms(seconds: float) -> float:
    return round(1e3 * seconds, 4)


def open_loop_accounting(phase, slip_share_limit: float) -> dict:
    from perfbench.workloads import nearest_rank

    slip_share = sum(phase.slips) / sum(phase.latencies)
    return {
        "requests": len(phase.latencies),
        "behind_p50_ms": _ms(nearest_rank(phase.behind, 0.50)),
        "behind_p99_ms": _ms(nearest_rank(phase.behind, 0.99)),
        "behind_max_ms": _ms(max(phase.behind)),
        "slip_p99_ms": _ms(nearest_rank(phase.slips, 0.99)),
        "slip_share": round(slip_share, 5),
        "valid": slip_share <= slip_share_limit,
    }


def host_cpu_jiffies() -> tuple[int, int]:
    """``(steal, total)`` CPU time of the host so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The services join their workers on ``stop()``.  What is left is the
    multiprocessing resource tracker, which the shared-memory result
    rings start and which the standard library lets outlive its parent;
    closing its pipe ends it, and ``_stop`` waits for that.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print("perfbench: the repro source tree (src/repro) is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]

    from perfbench import metrics
    from perfbench.verify import failed_count
    from perfbench.workloads import SLIP_SHARE_LIMIT, WORKLOADS, BenchRun

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{spec.name}-seed{args.seed}"
    workdir = OUTPUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = BenchRun(spec, args.seed, args.seconds, bool(args.trace), workdir)
    steal_before, total_before = host_cpu_jiffies()
    try:
        outcome = run.execute()
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    steal_after, total_after = host_cpu_jiffies()

    tallies = outcome["tallies"]
    open_loop = open_loop_accounting(run.phases["open"], SLIP_SHARE_LIMIT)
    closed = run.phases["closed"]
    accounting = {
        "phases": tallies,
        "open_loop": open_loop,
        "closed_loop": {
            "batches": len(closed.served),
            "seconds": round(sum(window[1] for window in closed.windows), 4),
            "windows_out_of_input": sum(window[2] for window in closed.windows),
        },
        "spot_checked": outcome["spot"]["checked"],
        "updates": len(run.update_times),
        # Time the hypervisor ran something else on this machine's CPUs:
        # the usual cause of a slow run on a shared host.
        "host_steal_pct": round(
            100.0 * (steal_after - steal_before)
            / max(1, total_after - total_before), 2,
        ),
    }
    attempted = sum(tally["attempted"] for tally in tallies.values())
    failed = sum(failed_count(tally) for tally in tallies.values())
    correct = failed == 0 and open_loop["valid"]
    end_to_end = metrics.end_to_end(run, outcome)

    print(f"workload {spec.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, tally in tallies.items():
        print(f"  {name:>6}: " + "  ".join(f"{k} {v}" for k, v in tally.items()))
    print("  open loop: " + "  ".join(f"{k} {v}" for k, v in open_loop.items()))
    print(f"  closed loop: {accounting['closed_loop']}")
    print(f"  error_rate {failed / attempted:.6f} (fraction)  "
          f"spot-checked {accounting['spot_checked']} against Dijkstra  "
          f"host steal {accounting['host_steal_pct']}%")
    for message in outcome["wrong_examples"]:
        print(f"  WRONG {message}")
    if not open_loop["valid"]:
        print("  INVALID: the open-loop generator fell behind its schedule")
    units = dict(metrics.END_TO_END)
    for name, value in end_to_end.items():
        print(f"  {name} {value:.6g} {units[name]}")

    result = {"accounting": accounting, "end_to_end": end_to_end}
    if args.trace:
        chosen = metrics.per_layer(run, outcome)
        units = metrics.PER_LAYER
        trace_path = OUTPUT / f"trace-{tag}.json"
        run.recorder.write_chrome_trace(trace_path)
        self_times = run.recorder.self_times()
        result["per_layer"] = chosen
        result["self_seconds"] = self_times
        print(f"  spans {len(run.recorder.spans)} -> {trace_path.relative_to(ROOT)}")
        print("  self time by layer (s, whole run):")
        for layer, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<14} {seconds:10.4f}")
        for name, value in chosen.items():
            print(f"  {name} {value:.6g} {units[name]}")
    else:
        chosen = end_to_end
    (OUTPUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=float)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in chosen.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
