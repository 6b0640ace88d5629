"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload batch-cold|serve-hot|serve-churn \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` a traced run
that reports the per-layer metrics (README.md).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries run details.  Any
wrong answer makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    REFERENCE_CALIBRATION_MS, SRC, WORK, cpu_ticks, latency_summary, spawn,
    stop, wait_ready,
)

WORKLOADS = ("batch-cold", "serve-hot", "serve-churn")

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("max_rate_rps", "req/s"),
    ("answered_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> Tuple[Tuple[str, str], ...]:
    from tracing import KINDS

    kinds = []
    for kind in KINDS:
        kinds += [(f"kinds.{kind}.ms", "ms"), (f"kinds.{kind}.calls", "1/req")]
    return (
        ("server.overhead_ms", "ms"),
        ("server.refused", "count"),
        ("batch.init_ms", "ms"),
        ("batch.init.calls", "1/req"),
        ("batch.fingerprint_ms", "ms"),
        ("batch.fingerprint.calls", "1/req"),
        ("batch.parse_ms", "ms"),
        ("batch.translate_ms", "ms"),
        ("batch.evaluate_ms", "ms"),
        ("batch.dedup_share", "ratio"),
        ("parser.parse_ms", "ms"),
        ("parser.parse.calls", "1/req"),
        ("parser.cache_hit_ratio", "ratio"),
        ("translate.prewarm_ms", "ms"),
        ("translate.prewarm.calls", "1/req"),
        ("translate.formula_hit_ratio", "ratio"),
        *kinds,
        ("kernel.init_ms", "ms"),
        ("kernel.init.calls", "1/req"),
        ("kernel.op_calls", "1/req"),
        ("kernel.cache_hit_ratio", "ratio"),
        ("kernel.nodes_allocated", "1/req"),
        ("kernel.peak_live_nodes", "count"),
        ("kernel.gc_runs", "1/req"),
        ("kernel.load_snapshot_ms", "ms"),
        ("kernel.load_snapshot.calls", "1/req"),
        ("kernel.snapshot_ms", "ms"),
        ("kernel.snapshot.calls", "1/req"),
        ("pool.hit_ratio", "ratio"),
        ("pool.evictions_per_request", "1/req"),
        ("pool.busy_ms", "ms"),
        ("store.get_ms", "ms"),
        ("store.get.calls", "1/req"),
        ("store.put_ms", "ms"),
        ("store.puts_per_request", "1/req"),
        ("store.mb_written", "MB/req"),
        ("trace.overhead_ms", "ms"),
        ("trace.spans_per_request", "1/req"),
    )


#: batch-cold: worker processes per run.  Each one's spawn to ready line
#: is a set-up sample, and each runs one share of the measurement (the
#: traced run uses only the last), so every figure is a median over
#: processes and moments, not one process's luck.
BATCH_WORKERS = 5
BATCH_READY = "perfbench batch-cold: ready"


def _worker_figures(result: Dict[str, Any], share: float) -> Dict[str, float]:
    """One worker's figures from its per-battery medians."""
    sizes = result["battery_queries"]
    medians = [statistics.median(v) for v in result["latency_ms"].values()]
    summary = latency_summary(medians)
    pass_s = sum(medians) / 1000.0
    walls = [statistics.median(v) for v in result["wall_ms"].values()]
    return {
        "wall_p50_ms": statistics.median(walls),
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "tail_percentile": summary["tail_percentile"],
        "queries_per_s": sum(sizes) * share / pass_s,
        "max_rate_rps": len(sizes) / pass_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_batch(
    seed: int, seconds: float, trace: bool, workdir: Path, oracle
) -> Dict[str, Any]:
    log = workdir / "worker.log"
    measuring = 1 if trace else BATCH_WORKERS
    setups: List[float] = []
    outputs: List[Dict[str, Any]] = []
    for rep in range(BATCH_WORKERS):
        spawned = time.perf_counter()
        proc = spawn(
            [str(Path(__file__).with_name("batch_worker.py"))], log, stdin=True
        )
        output = ""
        try:
            ready, _ = wait_ready(proc, BATCH_READY)
            setups.append(ready - spawned)
            if rep >= BATCH_WORKERS - measuring:
                command = {
                    "cmd": "run", "seconds": seconds / measuring,
                    "seed": f"{seed}:{rep}", "trace": int(trace),
                    "spans": str(workdir / "spans-batch-cold.jsonl"),
                }
            else:
                command = {"cmd": "exit"}
            proc.stdin.write(json.dumps(command) + "\n")
            proc.stdin.flush()
            if command["cmd"] == "run":
                output = proc.stdout.readline()
        finally:
            code = stop(proc, timeout=170)
        if code != 0:
            raise RuntimeError(f"batch worker exited with {code} (see {log})")
        if output:
            outputs.append(json.loads(output))

    problems: List[str] = []
    attempted = failed = 0
    for result in outputs:
        wrong = set()
        for key, answer in result["answers"].items():
            problem = oracle.verify(key, answer, key)
            if problem is not None:
                wrong.add(key)
                problems.append(problem)
        for part in [result] + ([result["traced"]] if trace else []):
            attempted += part["queries"]
            for key, runs in part["executions"].items():
                failed += runs if key in wrong else part["mismatches"].get(key, 0)
    share = (attempted - failed) / max(attempted, 1)
    workers = [_worker_figures(result, share) for result in outputs]
    if trace:
        metrics = dict(outputs[0]["layers"])
        metrics["server.overhead_ms"] = 0.0
        metrics["server.refused"] = 0.0
    else:
        # Set-up runs in other processes than the readings, so it is
        # scaled by the run's median reading, as the serve figures are.
        speed = statistics.median(r["calibration_ms"] for r in outputs)
        metrics = {
            "setup_s": statistics.median(setups)
            * REFERENCE_CALIBRATION_MS / speed,
            **{
                name: statistics.median(d[key] for d in workers)
                for name, key in (
                    ("latency_p50_ms", "p50_ms"),
                    ("latency_tail_ms", "tail_ms"),
                    ("queries_per_s", "queries_per_s"),
                    ("max_rate_rps", "max_rate_rps"),
                    ("peak_rss_mb", "peak_rss_mb"),
                )
            },
        }
    details = {
        "batteries": len(outputs[0]["battery_queries"]),
        "passes": [r["passes"] for r in outputs],
        "tail_percentile": workers[0]["tail_percentile"],
        "worker_p50_ms": [d["p50_ms"] for d in workers],
        "worker_wall_p50_ms": [d["wall_p50_ms"] for d in workers],
        "worker_calibration_ms": [r["calibration_ms"] for r in outputs],
        "worker_queries_per_s": [d["queries_per_s"] for d in workers],
        "setup_runs_s": setups,
        "problems": problems[:20],
    }
    return {
        "metrics": metrics,
        "totals": {"attempted": attempted, "failed": failed},
        "details": details,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--golden", type=Path, help="golden answer file (default: golden.json)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from oracle import Oracle

    oracle = Oracle.build(args.golden)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    steal_before, total_before = cpu_ticks()
    try:
        if args.workload == "batch-cold":
            outcome = run_batch(
                args.seed, args.seconds, bool(args.trace), workdir, oracle
            )
        else:
            import serve

            outcome = serve.run(
                args.workload, args.seed, args.seconds, bool(args.trace),
                workdir, oracle,
            )
    finally:
        for log in sorted(workdir.glob("*.log")):
            text = log.read_text(encoding="utf-8", errors="replace")
            if text:
                sys.stderr.write(f"--- {log.name} ---\n{text}")

    steal_after, total_after = cpu_ticks()
    outcome["details"]["host_steal_share"] = (steal_after - steal_before) / max(
        total_after - total_before, 1
    )
    totals = outcome["totals"]
    attempted, failed = totals["attempted"], totals["failed"]
    metrics = outcome["metrics"]
    if args.trace:
        names = per_layer_metrics()
    else:
        metrics["answered_share"] = (attempted - failed) / max(attempted, 1)
        names = END_TO_END
    printed: Dict[str, Dict[str, Any]] = {}
    for name, unit in names:
        value = float(metrics[name])
        printed[name] = {"value": value if math.isfinite(value) else 1e9, "unit": unit}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "details": outcome["details"]}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": printed}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
