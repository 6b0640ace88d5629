"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the public calls into each layer, from this
file: :meth:`Tracer.install` swaps each name for a timing wrapper in the
module or class where its caller looks it up, and :meth:`Tracer.uninstall`
puts the originals back.  A span is ``(id, name, start, end, parent,
request)``; the parent is the innermost open span on the same thread,
and the request id is set by the outermost span of a battery.  Spans stay
in memory until :meth:`Tracer.write` dumps them as JSON lines.

:func:`layer_metrics` turns spans into the per-layer metrics: busy time
is *self* time (a span's duration minus the part its children cover),
summed per span name and divided by the number of measured requests.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.bdd.manager import BDDManager
from repro.engine import REGISTRY
from repro.engine.kinds import resolve_kind
from repro.service import batch as batch_module
from repro.service import server as server_module
from repro.service.batch import AnalysisSession, BatchAnalyzer
from repro.service.pool import SessionPool
from repro.service.store import SnapshotStore

import repro.checker.translate as translate_module

#: Registry kinds, in registry order (one ``kinds.<kind>`` metric each).
KINDS: Tuple[str, ...] = tuple(REGISTRY.names())

#: ``(span name, busy-time metric, call-count metric)`` for every span
#: the per-layer output reports.
TIMED_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("batch.init", "batch.init_ms", "batch.init.calls"),
    ("batch.fingerprint", "batch.fingerprint_ms", "batch.fingerprint.calls"),
    ("parser.parse", "parser.parse_ms", "parser.parse.calls"),
    ("translate.prewarm", "translate.prewarm_ms", "translate.prewarm.calls"),
    ("kernel.init", "kernel.init_ms", "kernel.init.calls"),
    ("kernel.load_snapshot", "kernel.load_snapshot_ms",
     "kernel.load_snapshot.calls"),
    ("kernel.snapshot", "kernel.snapshot_ms", "kernel.snapshot.calls"),
    ("store.get", "store.get_ms", "store.get.calls"),
    ("store.put", "store.put_ms", "store.puts_per_request"),
) + tuple(
    (f"kinds.{kind}", f"kinds.{kind}.ms", f"kinds.{kind}.calls")
    for kind in KINDS
)

Span = Tuple[int, str, float, float, Optional[int], Optional[str]]


class Tracer:
    """Records spans and counters; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(counter, increment, request)`` records.
        self.counts: List[Tuple[str, float, Optional[str]]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(
        self,
        name: str,
        fn: Callable[..., Any],
        *args: Any,
        request: Optional[str] = None,
        **kwargs: Any,
    ) -> Any:
        """Call ``fn`` inside a span called ``name``.  ``request`` starts
        a new request on this thread; nested spans inherit it."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        outer_request = getattr(self._local, "request", None)
        if request is not None:
            self._local.request = request
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent,
                 getattr(self._local, "request", None))
            )
            if request is not None:
                self._local.request = outer_request

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` for the current request."""
        self.counts.append(
            (name, value, getattr(self._local, "request", None))
        )

    def wrap(
        self, name: Callable[..., str] | str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        @functools.wraps(fn, updated=())
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            return self.run(label, fn, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every layer entry point where its caller looks it up."""
        wrap = self.wrap
        # service.server: one request per battery, id from the query ids.
        evaluate = server_module.AnalysisServer._evaluate_battery

        def evaluate_battery(server, specs, options):
            request = specs[0].id.split(".", 1)[0] if specs else None
            return self.run(
                "server.evaluate", evaluate, server, specs, options,
                request=request,
            )

        self._patch(
            server_module.AnalysisServer, "_evaluate_battery",
            evaluate_battery,
        )
        self._patch(
            server_module, "BatchAnalyzer", wrap("batch.init", BatchAnalyzer)
        )
        self._patch(
            server_module, "tree_fingerprint",
            wrap("batch.fingerprint", server_module.tree_fingerprint),
        )
        # service.batch and the layers it calls.
        self._patch(BatchAnalyzer, "run", wrap("batch.run", BatchAnalyzer.run))
        self._patch(
            batch_module, "tree_fingerprint",
            wrap("batch.fingerprint", batch_module.tree_fingerprint),
        )
        self._patch(
            batch_module, "parse_request",
            wrap("parser.parse", batch_module.parse_request),
        )
        self._patch(
            AnalysisSession, "prewarm",
            wrap("translate.prewarm", AnalysisSession.prewarm),
        )
        self._patch(
            batch_module, "execute_kind",
            wrap(
                lambda session, spec, statement:
                f"kinds.{resolve_kind(spec, statement).name}",
                batch_module.execute_kind,
            ),
        )
        # bdd.manager
        self._patch(
            translate_module, "BDDManager", wrap("kernel.init", BDDManager)
        )
        self._patch(
            BDDManager, "load_snapshot",
            staticmethod(wrap("kernel.load_snapshot", BDDManager.load_snapshot)),
        )
        self._patch(
            BDDManager, "save_snapshot",
            wrap("kernel.snapshot", BDDManager.save_snapshot),
        )
        # service.pool (its hit and eviction counts come from GET /stats)
        for method in ("acquire", "adopt", "release"):
            self._patch(
                SessionPool, method,
                wrap(f"pool.{method}", getattr(SessionPool, method)),
            )
        # service.store
        put = SnapshotStore.put

        def store_put(store, fingerprint, kernel):
            path = self.run("store.put", put, store, fingerprint, kernel)
            self.count("store.bytes_written", path.stat().st_size)
            return path

        self._patch(SnapshotStore, "get", wrap("store.get", SnapshotStore.get))
        self._patch(SnapshotStore, "put", store_put)
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump spans and counts as JSON lines (``{"span": [...]}`` or
        ``{"count": [...]}``)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({"span": span}) + "\n")
            for item in self.counts:
                handle.write(json.dumps({"count": item}) + "\n")


def read_trace(path: str) -> Tuple[List[Span], List[Tuple[str, float, Any]]]:
    """Inverse of :meth:`Tracer.write`."""
    spans: List[Span] = []
    counts: List[Tuple[str, float, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            if "span" in item:
                spans.append(tuple(item["span"]))
            else:
                counts.append(tuple(item["count"]))
    return spans, counts


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> self time in seconds (children run on the span's own
    thread and nest strictly, so their durations simply subtract)."""
    spans = list(spans)
    own = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent in own:
            own[parent] -= span[3] - span[2]
    return own


def layer_metrics(
    spans: List[Span],
    counts: Iterable[Tuple[str, float, Any]],
    measured: Callable[[Optional[str]], bool],
    requests: int,
) -> Dict[str, float]:
    """Per measured request: busy (self) milliseconds and calls of every
    span in :data:`TIMED_SPANS`, ``pool.busy_ms``, ``store.mb_written``
    and ``trace.spans_per_request``."""
    own = self_times(spans)
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        if measured(span[5]):
            busy[span[1]] += own[span[0]]
            calls[span[1]] += 1
    events: Dict[str, float] = defaultdict(float)
    for name, value, request in counts:
        if measured(request):
            events[name] += value
    per = max(requests, 1)
    metrics: Dict[str, float] = {}
    for span_name, ms_name, calls_name in TIMED_SPANS:
        metrics[ms_name] = busy[span_name] * 1000.0 / per
        metrics[calls_name] = calls[span_name] / per
    metrics.update({
        "pool.busy_ms": sum(
            busy[name] for name in ("pool.acquire", "pool.adopt", "pool.release")
        ) * 1000.0 / per,
        "store.mb_written": events["store.bytes_written"] / 1e6 / per,
        "trace.spans_per_request": sum(calls.values()) / per,
    })
    return metrics


def report_metrics(
    reports: List[Mapping[str, Any]], fresh: bool
) -> Dict[str, float]:
    """Per-layer counters from the product's own battery reports
    (``stats.phases``, ``stats.queries`` and the per-scenario parse,
    translation, ``bdd`` and ``memory`` blocks), per battery.

    ``kernel.nodes_allocated`` and ``kernel.gc_runs`` read the memory
    block's lifetime counters, which equal the battery's own only when
    every session is ``fresh`` (batch-cold); elsewhere they read 0.
    """
    n = max(len(reports), 1)
    sums: Dict[str, float] = defaultdict(float)
    peak = 0
    for report in reports:
        stats = report["stats"]
        sums["parse_ms"] += stats["phases"]["parse_ms"]
        sums["translate_ms"] += stats["phases"]["translate_ms"]
        sums["evaluate_ms"] += sum(r["elapsed_ms"] for r in report["results"])
        sums["statements"] += stats["queries"]["statements"]
        sums["dedup"] += stats["queries"]["structural_dedup"]
        for scenario in stats["scenarios"].values():
            sums["parse_hits"] += scenario["parse"]["hits"]
            sums["parse_total"] += (
                scenario["parse"]["hits"] + scenario["parse"]["misses"]
            )
            translation = scenario["translation"]
            sums["formula_hits"] += translation["formula_hits"]
            sums["formula_total"] += (
                translation["formula_hits"] + translation["formula_misses"]
            )
            sums["op_hits"] += scenario["bdd"]["hits"]
            sums["op_total"] += scenario["bdd"]["hits"] + scenario["bdd"]["misses"]
            memory = scenario["memory"]
            sums["allocated"] += memory["live_nodes"] + memory["reclaimed"]
            sums["gc_runs"] += memory["gc_runs"]
            peak = max(peak, memory["peak_live_nodes"])

    def ratio(num: str, den: str) -> float:
        return sums[num] / sums[den] if sums[den] else 0.0

    return {
        "batch.parse_ms": sums["parse_ms"] / n,
        "batch.translate_ms": sums["translate_ms"] / n,
        "batch.evaluate_ms": sums["evaluate_ms"] / n,
        "batch.dedup_share": ratio("dedup", "statements"),
        "parser.cache_hit_ratio": ratio("parse_hits", "parse_total"),
        "translate.formula_hit_ratio": ratio("formula_hits", "formula_total"),
        "kernel.op_calls": sums["op_total"] / n,
        "kernel.cache_hit_ratio": ratio("op_hits", "op_total"),
        "kernel.nodes_allocated": sums["allocated"] / n if fresh else 0.0,
        "kernel.peak_live_nodes": float(peak),
        "kernel.gc_runs": sums["gc_runs"] / n if fresh else 0.0,
    }
