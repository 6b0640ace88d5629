"""serve-hot and serve-churn: a ``bfl serve`` child driven over HTTP.

One run sets a server up ``SETUP_REPS`` times (spawn, ready line, one
answered battery per scenario).  Each server then serves one share of
the measurement: a warm-up, an open loop at the workload's reference
rate (the latency metrics), and a closed loop on two keep-alive
connections (``max_rate_rps`` and ``queries_per_s``).  Every answer goes
through the oracle.

Before the open loop, between the loops and after the closed loop, with
no request in flight, the client times ``common.calibration_ms``.  The
run's set-up time, latencies and rates are scaled to the reference
speed by the median of all those readings (README.md, "Host-speed
scaling").
"""

from __future__ import annotations

import json
import random
import re
import shutil
import signal
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import corpus
from client import Connection, Sample, closed_loop, open_loop, open_requests
from common import (
    REFERENCE_CALIBRATION_MS, calibration_ms, latency_summary, percentile,
    spawn, stop, vm_hwm_mb, wait_ready,
)
from oracle import Oracle, canonical

SETUP_REPS = 5
READY_MARKER = "bfl serve: listening on"
WARMUP_S = 0.5
#: Share of the measured time given to the open loop (the latency
#: percentiles need the samples; the closed-loop rate is a mean).
OPEN_SHARE = 0.6
#: Fewest open-loop requests per server (p75 has ten samples beyond it).
MIN_OPEN_SAMPLES = 40
#: Calibration readings at each of a server's three idle moments.
CALIBRATION_READINGS = 15

#: Open-loop reference rates, well below what two connections sustain
#: (see README.md for the saturation figures they were set from).
REFERENCE_RATE = {"serve-hot": 80.0, "serve-churn": 32.0}
#: Latency limit on the closed loop's tail for ``max_rate_rps``.
LATENCY_LIMIT_MS = {"serve-hot": 50.0, "serve-churn": 1000.0}
POOL_SIZE = {"serve-hot": 8, "serve-churn": corpus.CHURN_POOL_SIZE}
#: Closed-loop requests built ahead, per second of the loop (above the
#: saturation rates in README.md; later ones are built on demand).
PREPARE_RATE = {"serve-hot": 1500, "serve-churn": 300}


class Workload:
    """Requests, server arguments and answer checking for one run."""

    def __init__(self, name: str, seed: int, workdir: Path, oracle: Oracle):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.oracle = oracle
        self.scenarios = corpus.serve_scenarios(name)
        #: request id -> (tree name, query specs, weight profile)
        self.meta: Dict[str, Tuple[str, List[Dict[str, Any]], str]] = {}
        #: Oracle complaints, for the run log.
        self.problems: List[str] = []
        self._servers = 0
        self.tree_files: Dict[str, Path] = {}
        from repro.ft import dumps

        trees_dir = workdir / "trees"
        trees_dir.mkdir(parents=True, exist_ok=True)
        for tree_name, tree in self.scenarios.trees.items():
            path = trees_dir / f"{tree_name}.dft"
            path.write_text(dumps(tree), encoding="utf-8")
            self.tree_files[tree_name] = path

    # -- requests ------------------------------------------------------

    def body(
        self, rid: str, tree: str, queries: List[Dict[str, Any]], profile: str
    ) -> bytes:
        self.meta[rid] = (tree, queries, profile)
        scenario = self.scenarios.server_name(tree)
        payload: Dict[str, Any] = {
            "queries": [
                dict(q, id=f"{rid}.{q['id']}", tree=scenario) for q in queries
            ]
        }
        if profile != "base":
            payload["probabilities"] = corpus.OVERRIDE_PROFILES[profile]
        return json.dumps(payload).encode("utf-8")

    def maker(self, phase: str):
        def make(i: int) -> Tuple[str, bytes]:
            rng = random.Random(f"{self.seed}:{phase}:{i}")
            tree, queries, profile = corpus.draw_request(
                self.name, self.scenarios, rng
            )
            rid = f"{phase}{i}"
            return rid, self.body(rid, tree, queries, profile)

        return make

    def open_maker(self, count: int):
        """The open loop's ``count`` requests: the same draws in every
        run, in an order the seed shuffles.  The tail percentile falls
        among the few heavy requests (``mcs`` on covid, about 6% of
        serve-hot's mix), so a mix drawn from the seed moved it by a
        third from one seed to the next."""
        draws = [
            corpus.draw_request(
                self.name, self.scenarios, random.Random(f"r:{i}")
            )
            for i in range(count)
        ]
        random.Random(f"{self.seed}:r").shuffle(draws)

        def make(i: int) -> Tuple[str, bytes]:
            rid = f"r{i}"
            return rid, self.body(rid, *draws[i])

        return make

    # -- the server ----------------------------------------------------

    def server_args(self, store: Optional[Path]) -> List[str]:
        names = self.scenarios.names
        args = [
            "serve", "--port", "0",
            "--tree", str(self.tree_files[names[0]]),
            "--uniform", str(corpus.SERVE_UNIFORM),
            "--pool-size", str(POOL_SIZE[self.name]),
        ]
        for tree in names[1:]:
            args += ["--scenario", f"{tree}={self.tree_files[tree]}"]
        if store is not None:
            args += ["--store", str(store)]
        return args

    def start(self, spans: Optional[Path] = None) -> "Server":
        self._servers += 1
        tag = str(self._servers)
        store = (
            self.workdir / f"store-{tag}"
            if self.name == "serve-churn" else None
        )
        if spans is None:
            argv = ["-m", "repro.cli", *self.server_args(store)]
        else:
            argv = [
                str(Path(__file__).with_name("serve_launcher.py")),
                str(spans), *self.server_args(store),
            ]
        return Server(argv, self.workdir / "server.log", store, tag)

    def setup(self, server: "Server") -> Tuple[float, List[Sample]]:
        """One answered battery per scenario (cold builds; on
        serve-churn the evictions also populate the store)."""
        conn = Connection(server.port)
        samples = []
        try:
            for i, tree in enumerate(self.scenarios.names):
                rid = f"s{server.tag}-{i}"
                body = self.body(rid, tree, self.scenarios.pools[tree], "base")
                sent = time.perf_counter()
                status, payload = conn.request("POST", "/battery", body)
                samples.append(
                    Sample(rid, sent, sent, time.perf_counter(), status, payload)
                )
        finally:
            conn.close()
        return time.perf_counter() - server.spawned, samples

    # -- checking ------------------------------------------------------

    def check(self, sample: Sample) -> Tuple[int, int, Optional[Dict[str, Any]]]:
        """``(queries, wrong, report)`` for one response."""
        tree, queries, profile = self.meta[sample.rid]
        if sample.status != 200:
            return len(queries), len(queries), None
        report = json.loads(sample.body)
        wrong = 0
        kinds = {q["id"]: q.get("kind", "check") for q in queries}
        for result in report["results"]:
            qid = result["id"].split(".", 1)[1]
            check_key = (
                f"{tree}/{qid}" if kinds[qid] != "probability" else None
            )
            problem = self.oracle.verify(
                f"serve:{tree}/{qid}@{profile}", canonical(result), check_key
            )
            if problem is not None:
                wrong += 1
                self.problems.append(problem)
        wrong += max(0, len(queries) - len(report["results"]))
        return len(queries), wrong, report


class Server:
    """A spawned ``bfl serve`` (plain CLI, or the traced launcher)."""

    def __init__(
        self, argv: List[str], log: Path, store: Optional[Path], tag: str
    ):
        self.tag = tag
        self.store = store
        self.spawned = time.perf_counter()
        self.proc = spawn(argv, log)
        try:
            self.ready, line = wait_ready(self.proc, READY_MARKER)
        except BaseException:
            stop(self.proc, timeout=5)
            raise
        self.port = int(re.search(r":(\d+) ", line).group(1))

    def pool_stats(self) -> Dict[str, int]:
        """The server's own session-pool counters (``GET /stats``)."""
        conn = Connection(self.port)
        try:
            status, body = conn.request("GET", "/stats")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        pool = json.loads(body)["pool"]
        return {k: pool[k] for k in ("hits", "misses", "evictions")}

    def shutdown(self) -> int:
        """SIGTERM (after the caller closed its connections), drain,
        wait; the scratch store goes with the server."""
        self.proc.send_signal(signal.SIGTERM)
        code = stop(self.proc)
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
        return code


def _phase_latencies(
    workload: Workload, samples: List[Sample], totals: Dict[str, int]
) -> Tuple[List[float], List[int], List[Dict[str, Any]]]:
    """Per request: latency (ms from due; ``inf`` for a refused or wrong
    one) and correctly answered queries; plus the parsed reports."""
    latencies = []
    correct = []
    reports = []
    for sample in samples:
        queries, wrong, report = workload.check(sample)
        totals["attempted"] += queries
        totals["failed"] += wrong
        totals["refused"] += sample.status != 200
        correct.append(queries - wrong)
        if report is not None:
            reports.append(report)
        ok = sample.status == 200 and wrong == 0
        latencies.append(
            (sample.done - sample.due) * 1000.0 if ok else float("inf")
        )
    return latencies, correct, reports


def measure(
    workload: Workload, server: Server, seconds: float
) -> Dict[str, Any]:
    """Warm-up, open loop, closed loop against one set-up server."""
    name = workload.name
    measured_s = max(seconds - WARMUP_S, 1.0)
    # At least MIN_OPEN_SAMPLES requests, so a tail percentile exists.
    open_s = max(measured_s * OPEN_SHARE, MIN_OPEN_SAMPLES / REFERENCE_RATE[name])
    closed_s = max(measured_s - open_s, 0.5)
    warm = closed_loop(server.port, workload.maker("w"), WARMUP_S)
    pool_before = server.pool_stats()
    speeds = _calibrate()
    open_samples = open_loop(
        server.port,
        workload.open_maker(open_requests(REFERENCE_RATE[name], open_s)),
        REFERENCE_RATE[name], open_s,
    )
    speeds += _calibrate()
    closed_samples = closed_loop(
        server.port, workload.maker("c"), closed_s,
        prepare=int(closed_s * PREPARE_RATE[name]),
    )
    closed_start = min(s.sent for s in closed_samples)
    closed_wall = max(s.done for s in closed_samples) - closed_start
    pool_after = server.pool_stats()
    speeds += _calibrate()
    peak_rss = vm_hwm_mb(server.proc.pid)

    totals = {"attempted": 0, "failed": 0, "refused": 0}
    _phase_latencies(workload, warm, totals)
    warm_refused = totals["refused"]
    open_lat, _, open_reports = _phase_latencies(workload, open_samples, totals)
    closed_lat, closed_correct, closed_reports = _phase_latencies(
        workload, closed_samples, totals
    )
    return {
        "totals": totals,
        "refused": totals["refused"] - warm_refused,
        "open_ms": open_lat,
        "closed_ms": closed_lat,
        "open": latency_summary(open_lat),
        "calibration_ms": speeds,
        "max_rate_rps": sum(v != float("inf") for v in closed_lat) / closed_wall,
        "queries_per_s": sum(closed_correct) / closed_wall,
        "late_ms": [(s.sent - s.due) * 1000.0 for s in open_samples],
        "overhead_ms": [
            (s.done - s.sent) * 1000.0 - json.loads(s.body)["elapsed_ms"]
            for s in closed_samples if s.status == 200
        ],
        "reports": open_reports + closed_reports,
        "requests": len(open_samples) + len(closed_samples),
        "pool": {k: pool_after[k] - pool_before[k] for k in pool_before},
        "peak_rss_mb": peak_rss,
    }


def _calibrate() -> List[float]:
    return [calibration_ms() for _ in range(CALIBRATION_READINGS)]


def combine(name: str, parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge the measurements of several servers: every figure is the
    median of the per-server figures, so a slow moment of the machine
    during one server's share does not set it.  ``p50_ms``, ``tail_ms``
    and the two rates are then scaled to the reference speed by the
    median calibration reading of the run (``wall`` keeps them as
    measured)."""
    closed = latency_summary([v for part in parts for v in part["closed_ms"]])
    overhead = sorted(v for part in parts for v in part["overhead_ms"])
    speed = statistics.median(v for p in parts for v in p["calibration_ms"])
    # Wall milliseconds per reference millisecond.
    slowness = speed / REFERENCE_CALIBRATION_MS
    wall = {
        key: statistics.median(p[key] for p in parts)
        for key in ("max_rate_rps", "queries_per_s")
    }
    for key in ("p50_ms", "tail_ms"):
        wall[key] = statistics.median(p["open"][key] for p in parts)
    return {
        "p50_ms": wall["p50_ms"] / slowness,
        "tail_ms": wall["tail_ms"] / slowness,
        "max_rate_rps": wall["max_rate_rps"] * slowness,
        "queries_per_s": wall["queries_per_s"] * slowness,
        "wall": wall,
        "calibration_ms": speed,
        "server_p50_ms": [p["open"]["p50_ms"] for p in parts],
        "server_tail_ms": [p["open"]["tail_ms"] for p in parts],
        "tail_percentile": parts[0]["open"]["tail_percentile"],
        "samples_per_server": parts[0]["open"]["samples"],
        "server_max_rate_rps": [p["max_rate_rps"] for p in parts],
        "closed": closed,
        "limit_ms": LATENCY_LIMIT_MS[name],
        "limit_met": closed["tail_ms"] <= LATENCY_LIMIT_MS[name],
        "generator_late_p99_ms": percentile(
            sorted(v for part in parts for v in part["late_ms"]), 99.0
        ),
        "server_overhead_ms": percentile(overhead, 50.0) if overhead else 0.0,
        "refused": sum(part["refused"] for part in parts),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
    }


def run(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path,
    oracle: Oracle,
) -> Dict[str, Any]:
    """One benchmark run of a serve workload; returns metrics + counts."""
    workload = Workload(name, seed, workdir, oracle)
    totals = {"attempted": 0, "failed": 0, "refused": 0}

    def set_up(spans: Optional[Path] = None) -> Tuple[Server, float]:
        server = workload.start(spans)
        try:
            setup_s, samples = workload.setup(server)
            _phase_latencies(workload, samples, totals)
        except BaseException:
            server.shutdown()
            raise
        return server, setup_s

    if not trace:
        # Each set-up server also serves one share of the measurement, so
        # the figures average over processes (hash seeds, heap layouts),
        # not just over requests to one process.
        setups: List[float] = []
        parts: List[Dict[str, Any]] = []
        for _ in range(SETUP_REPS):
            server, setup_s = set_up()
            setups.append(setup_s)
            try:
                parts.append(measure(workload, server, seconds / SETUP_REPS))
            finally:
                server.shutdown()
            _add(totals, parts[-1]["totals"])
        result = combine(name, parts)
        metrics = {
            "setup_s": statistics.median(setups)
            * REFERENCE_CALIBRATION_MS / result["calibration_ms"],
            "latency_p50_ms": result["p50_ms"],
            "latency_tail_ms": result["tail_ms"],
            "queries_per_s": result["queries_per_s"],
            "max_rate_rps": result["max_rate_rps"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        details = dict(result, setup_runs_s=setups)
    else:
        from tracing import layer_metrics, read_trace, report_metrics

        server, _ = set_up()
        try:
            plain = measure(workload, server, seconds / 2)
        finally:
            server.shutdown()
        _add(totals, plain["totals"])
        spans_path = workdir / f"spans-{name}.jsonl"
        server, _ = set_up(spans_path)
        try:
            traced = measure(workload, server, seconds / 2)
        finally:
            server.shutdown()
        _add(totals, traced["totals"])
        spans, counts = read_trace(str(spans_path))

        def measured(request: Optional[str]) -> bool:
            return bool(request) and request[0] in "rc"

        requests = traced["requests"]
        pool = traced["pool"]
        lookups = pool["hits"] + pool["misses"]
        metrics = layer_metrics(spans, counts, measured, requests)
        metrics.update(report_metrics(traced["reports"], fresh=False))
        metrics.update({
            "pool.hit_ratio": pool["hits"] / lookups if lookups else 0.0,
            "pool.evictions_per_request": pool["evictions"] / requests,
            "server.overhead_ms": statistics.median(plain["overhead_ms"]),
            "server.refused": float(plain["refused"] + traced["refused"]),
            "trace.overhead_ms": (
                traced["open"]["p50_ms"] - plain["open"]["p50_ms"]
            ),
        })
        details = {
            "untraced_p50_ms": plain["open"]["p50_ms"],
            "traced_p50_ms": traced["open"]["p50_ms"],
            "spans": len(spans),
        }
    details["problems"] = workload.problems[:20]
    return {"metrics": metrics, "totals": totals, "details": details}


def _add(totals: Dict[str, int], more: Dict[str, int]) -> None:
    for key, value in more.items():
        totals[key] += value
