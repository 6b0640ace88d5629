"""batch-cold worker process: cold ``BatchAnalyzer.run`` batteries.

Started by ``run.py``.  It builds the fixed corpus, prints
``perfbench batch-cold: ready`` and reads one JSON command from stdin:

* ``{"cmd": "exit"}`` — leave (set-up timing runs);
* ``{"cmd": "run", "seconds": S, "seed": N, "trace": 0|1, "spans": PATH}``
  — run passes over the corpus, each battery on a fresh
  ``BatchAnalyzer`` (a cold session, as in one ``bfl batch`` run), in an
  order the seed shuffles per pass, until ``S`` seconds have gone (the
  first pass always completes); then print one JSON line with each
  battery's latencies, the first answers and counters.

Each battery's wall time is also kept scaled to the host's speed at
that moment: ``common.calibration_ms`` is timed just before the
battery, and the wall time times ``REFERENCE_CALIBRATION_MS`` over that
reading is what ``latency_ms`` holds (``wall_ms`` keeps the raw times).
A shared host's speed moves by a fifth within seconds, and by as much
between runs a minute apart; the scaled times move with the program.

With ``trace`` the first half of the time runs untraced and the second
half traced, so the tracing overhead is measured on the same batteries.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List

from repro import BatchAnalyzer

import corpus
from common import REFERENCE_CALIBRATION_MS, calibration_ms
from oracle import canonical, same


def run_passes(
    entries, seconds: float, rng: random.Random, tracer=None
) -> Dict[str, Any]:
    """One measurement.  What is kept between batteries is small or
    untracked by the cyclic GC (reports are kept as JSON text, and only
    when traced), so the harness does not slow the collections that run
    inside the timed batteries as the run goes on."""
    latencies: Dict[int, List[float]] = defaultdict(list)
    walls: Dict[int, List[float]] = defaultdict(list)
    speeds: List[float] = []
    reports: List[str] = []
    answers: Dict[str, Dict[str, Any]] = {}
    executions: Dict[str, int] = defaultdict(int)
    mismatches: Dict[str, int] = defaultdict(int)
    passes = 0
    queries = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        order = list(range(len(entries)))
        rng.shuffle(order)
        for index in order:
            if passes and time.perf_counter() >= deadline:
                break
            name, tree, battery, probabilities = entries[index]

            def battery_run():
                if tracer is None:
                    analyzer = BatchAnalyzer(
                        {name: tree}, probabilities={name: probabilities}
                    )
                else:
                    analyzer = tracer.run(
                        "batch.init", BatchAnalyzer, {name: tree},
                        probabilities={name: probabilities},
                    )
                return analyzer.run(battery)

            speed = calibration_ms()
            speeds.append(speed)
            start = time.perf_counter()
            if tracer is None:
                report = battery_run()
            else:
                report = tracer.run(
                    "battery", battery_run, request=f"b{passes}.{index}"
                )
            wall = (time.perf_counter() - start) * 1000.0
            walls[index].append(wall)
            latencies[index].append(wall * REFERENCE_CALIBRATION_MS / speed)
            data = report.to_dict()
            if tracer is not None:
                reports.append(json.dumps(data))
            for result in data["results"]:
                key = f"{name}/{result['id']}"
                answer = canonical(result)
                executions[key] += 1
                queries += 1
                if key not in answers:
                    answers[key] = answer
                elif not same(answer, answers[key]):
                    mismatches[key] += 1
        passes += 1
    return {
        "passes": passes,
        "queries": queries,
        "latency_ms": {str(i): v for i, v in latencies.items()},
        "wall_ms": {str(i): v for i, v in walls.items()},
        "calibration_ms": sorted(speeds)[len(speeds) // 2],
        "answers": answers,
        "executions": dict(executions),
        "mismatches": dict(mismatches),
        "reports": reports,
    }


def main() -> int:
    entries = corpus.batch_corpus()
    # The corpus and the imports live for the whole run: keep them out of
    # the collector's way, so collections inside a battery scan about
    # what they would in a one-battery `bfl batch` process.
    gc.freeze()
    print(f"perfbench batch-cold: ready ({len(entries)} batteries)", flush=True)
    command = json.loads(sys.stdin.readline() or '{"cmd": "exit"}')
    if command["cmd"] != "run":
        return 0
    rng = random.Random(command["seed"])
    seconds = float(command["seconds"])
    out: Dict[str, Any] = {"battery_queries": [len(e[2]) for e in entries]}
    if not command.get("trace"):
        result = run_passes(entries, seconds, rng)
        result.pop("reports")
        out.update(result)
    else:
        from tracing import Tracer, layer_metrics, report_metrics

        plain = run_passes(entries, seconds / 2, rng)
        tracer = Tracer().install()
        try:
            traced = run_passes(entries, seconds / 2, rng, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(command["spans"])
        executed = len(traced["reports"])
        layers = layer_metrics(
            tracer.spans, tracer.counts, lambda r: r is not None, executed
        )
        layers.update(report_metrics(
            [json.loads(r) for r in traced["reports"]], fresh=True
        ))
        layers["pool.hit_ratio"] = 0.0
        layers["pool.evictions_per_request"] = 0.0
        # Paired by battery: traced minus untraced median latency.
        diffs = sorted(
            _median(traced["latency_ms"][i]) - _median(plain["latency_ms"][i])
            for i in plain["latency_ms"]
        )
        layers["trace.overhead_ms"] = _median(diffs)
        for part in (plain, traced):
            part.pop("reports")
        out.update(plain)
        out["traced"] = traced
        out["layers"] = layers
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(out), flush=True)
    return 0


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


if __name__ == "__main__":
    sys.exit(main())
