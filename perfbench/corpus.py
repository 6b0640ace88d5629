"""Fixed inputs of the benchmark: fault trees and their query batteries.

Nothing here depends on the run's ``--seed``: the seed only orders the
batteries and draws requests (see ``run.py``).  Every tree and every
battery is a pure function of the constants below, so answers can be
checked against the oracles in ``oracle.py`` and the recorded
``golden.json``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.casestudy import build_covid_tree
from repro.casestudy.covid import HUMAN_ERRORS
from repro.ft import (
    RandomTreeConfig,
    example_vot_tree,
    figure1_tree,
    figure3_or_tree,
    random_tree,
    table1_tree,
)
from repro.ft.builder import FaultTreeBuilder
from repro.ft.tree import FaultTree

Spec = Dict[str, Any]

#: Random-tree shapes (``RandomTreeConfig`` keyword sets).
SHAPES = {
    "a": dict(max_children=4, p_share=0.2, max_depth=6),
    "b": dict(max_children=5, p_share=0.3, max_depth=8),
    "c": dict(max_children=4, p_share=0.3, max_depth=6),
}

#: batch-cold random trees: (seed, basic events, shape).  Chosen so a
#: cold battery takes from a few ms to about a second and the kernels
#: span about 0.5k to 75k nodes (README.md, "Corpus").
BATCH_RANDOM: Tuple[Tuple[int, int, str], ...] = tuple(
    [(seed, 30, "a") for seed in range(1, 9)]
    + [(seed, 30, "b") for seed in range(1, 9)]
    + [(seed, 30, "c") for seed in (1, 2, 4, 5, 6)]
    + [(seed, 40, "a") for seed in (2, 4)]
    + [(seed, 40, "b") for seed in range(1, 6)]
    + [(seed, 40, "c") for seed in (1, 3, 4, 5, 6)]
    + [(seed, 50, "a") for seed in (1, 2, 3, 5)]
    + [(seed, 50, "b") for seed in (2, 3, 4)]
    + [(seed, 50, "c") for seed in (2, 3, 5)]
    + [(seed, 60, "b") for seed in (1, 2, 4)]
    + [(seed, 60, "c") for seed in (1, 5, 6)]
    + [(2, 70, "a"), (5, 70, "b")]
)

#: Random trees small enough for the enumerative oracle.
SMALL_RANDOM: Tuple[Tuple[int, int, str], ...] = (
    (1, 8, "a"), (2, 9, "b"), (3, 10, "c"), (4, 10, "a"),
)

#: batch-cold AND-of-OR trees (number of two-input OR pairs).  Larger
#: ones hit the recursive kernel's limit (README.md, "Known defects").
AND_OR_PAIRS: Tuple[int, ...] = (50, 100, 200, 300)

#: Trees whose top-level ``mcs``/``mps`` enumerations stay small and
#: fast (measured when the corpus was chosen): the rest get neither.
TOP_SETS_OK: frozenset = frozenset(
    {
        "r30a1", "r30b3", "r30b4", "r30b7", "r30c1",
        "r30c2", "r30c5", "r40a4", "r40b4", "r40c1", "r40c3",
        "r40c4", "r50b4", "r50c2", "r60b4", "r60c1",
        "r8a1", "r9b2", "r10c3", "r10a4",
    }
)


def random_name(seed: int, n: int, shape: str) -> str:
    return f"r{n}{shape}{seed}"


def build_random(seed: int, n: int, shape: str) -> FaultTree:
    return random_tree(
        seed, RandomTreeConfig(n_basic_events=n, **SHAPES[shape])
    )


def and_of_ors(pairs: int) -> FaultTree:
    """``top = AND(o1..oN)`` with ``oi = OR(ai, bi)``."""
    builder = FaultTreeBuilder()
    for i in range(1, pairs + 1):
        builder.basic_events(f"a{i}", f"b{i}")
        builder.or_gate(f"o{i}", f"a{i}", f"b{i}")
    builder.and_gate("top", *(f"o{i}" for i in range(1, pairs + 1)))
    return builder.build("top")


def event_probabilities(tree: FaultTree) -> Dict[str, float]:
    """Fixed, non-uniform failure probabilities for one tree."""
    return {
        event: round(0.005 + 0.004 * (i % 11), 4)
        for i, event in enumerate(tree.basic_events)
    }


def mixed_battery(name: str, tree: FaultTree, top_sets: bool) -> List[Spec]:
    """The battery every non-paper tree gets.

    Three checks share ``MCS(top)`` (structural dedup), then one query of
    each of ``probability``, ``independence``, ``counterexample`` and
    ``synthesize``; ``mcs``/``mps`` of the top only where ``top_sets``.
    Picks come from an RNG seeded by the tree name, never the run seed.
    """
    rng = random.Random(name)
    top = tree.top
    events = list(tree.basic_events)
    gates = [g for g in tree.gate_names if g != top]
    a, b, c = rng.sample(events, 3)
    battery: List[Spec] = [
        {"id": "mcs-a", "formula": f"exists (MCS({top}) & {a})"},
        {"id": "mcs-ab", "formula": f"exists (MCS({top}) & {a} & !{b})"},
        {"id": "mcs-c", "formula": f"forall (MCS({top}) => {c})"},
        {"id": "p-top", "kind": "probability", "formula": f"P({top})"},
        {"id": "p-cond", "kind": "probability",
         "formula": f"P({top} | {a})"},
    ]
    if len(gates) >= 2:
        left, right = rng.sample(gates, 2)
        battery.append(
            {"id": "idp", "kind": "independence", "formula": left,
             "other": right}
        )
    battery.append(
        {"id": "cex", "kind": "counterexample", "formula": f"MCS({top})",
         "failed": events}
    )
    battery.append(
        {"id": "syn", "kind": "synthesize", "formula": f"!{top}",
         "candidates": sorted(rng.sample(events, min(6, len(events))))}
    )
    if top_sets:
        battery.append({"id": "mcs", "kind": "mcs"})
        battery.append({"id": "mps", "kind": "mps"})
    for spec in battery:
        spec["tree"] = name
    return battery


# ----------------------------------------------------------------------
# Paper trees: the Sec. VII battery, Table I and the small figures
# ----------------------------------------------------------------------

PAPER_TREES = {
    "covid": build_covid_tree,
    "fig1": figure1_tree,
    "fig3": figure3_or_tree,
    "vot": example_vot_tree,
    "table1": table1_tree,
}


def covid_battery() -> List[Spec]:
    """The nine Sec. VII properties as batch queries (ids match the
    claim keys in ``oracle.py``), plus ``P(IWoS)``."""
    human = ", ".join(HUMAN_ERRORS)
    disjunction = " | ".join(HUMAN_ERRORS)
    p6_zeroed = ", ".join(f"{h} := 0" for h in HUMAN_ERRORS)
    p6_oned = ", ".join(
        f"{e} := 1"
        for e in build_covid_tree().basic_events
        if e not in HUMAN_ERRORS
    )
    return [
        {"id": "p1", "formula": "forall (IS => MoT)"},
        {"id": "p1-sets", "kind": "satisfaction-set",
         "formula": "MCS(MoT) & IS"},
        {"id": "p2", "formula": f"forall (MoT => ({disjunction}))"},
        {"id": "p2-dt", "formula": f"exists (DT & !({disjunction}) & MoT)"},
        {"id": "p3", "formula": "forall (H4 => IWoS)"},
        {"id": "p4", "formula": f"forall (VOT(>= 2; {human}) => IWoS)"},
        {"id": "p4-count", "kind": "satisfaction-set",
         "formula": " | ".join(f"(MCS(IWoS) & {h})" for h in HUMAN_ERRORS)},
        {"id": "p5", "kind": "satisfaction-set", "formula": "MCS(IWoS) & H4"},
        {"id": "p6", "formula": f"exists (MPS(IWoS)[{p6_zeroed}, {p6_oned}])"},
        {"id": "p7", "kind": "mps"},
        {"id": "p8", "kind": "independence", "formula": "CIO",
         "other": "CIS"},
        {"id": "p9", "formula": "SUP(PP)"},
        {"id": "p-top", "kind": "probability", "formula": "P(IWoS)"},
    ]


#: Table I (Sec. VI): formula, example bits, Algorithm 4 output bits, in
#: the tree's (e2, e4, e5) order.  Row pattern1-row2 is the documented
#: deviation: the other, equally valid, minimal witness.
TABLE1 = {
    "pattern1-row1": ("MCS(e1)", (0, 1, 0), (1, 1, 0)),
    "pattern1-row2": ("MCS(e1)", (1, 1, 1), (1, 1, 0)),
    "pattern2-row1": ("MPS(e1)", (1, 0, 1), (1, 0, 0)),
    "pattern2-row2": ("MPS(e1)", (0, 0, 0), (0, 1, 1)),
    "pattern3": ("MCS(e1) & MCS(e3)", (0, 1, 0), (1, 1, 0)),
    "pattern4": ("MPS(e1) & MPS(e3)", (1, 0, 1), (1, 0, 0)),
}


def paper_batteries() -> Dict[str, List[Spec]]:
    batteries = {
        "covid": covid_battery(),
        "fig1": [
            {"id": "mcs", "kind": "mcs"},
            {"id": "mps", "kind": "mps"},
            {"id": "p-top", "kind": "probability", "formula": "P(CP/R)"},
        ],
        "fig3": [
            {"id": "mcs-sat", "kind": "satisfaction-set",
             "formula": "MCS(Top)"},
            {"id": "ex2", "formula": "exists (MCS(Top) & !e1)"},
        ],
        "vot": [
            {"id": "mcs", "kind": "mcs"},
            {"id": "mps", "kind": "mps"},
            {"id": "p-top", "kind": "probability", "formula": "P(V)"},
        ],
        "table1": [
            {"id": row, "kind": "counterexample", "formula": formula,
             "bits": list(bits)}
            for row, (formula, bits, _output) in TABLE1.items()
        ],
    }
    for name, battery in batteries.items():
        for spec in battery:
            spec["tree"] = name
    return batteries


# ----------------------------------------------------------------------
# The batch-cold corpus
# ----------------------------------------------------------------------

#: One battery of the corpus: (scenario name, tree, battery, probabilities).
Entry = Tuple[str, FaultTree, List[Spec], Dict[str, float]]


def batch_corpus() -> List[Entry]:
    """Every batch-cold battery, in a fixed order (the run's seed
    shuffles the order per pass)."""
    entries: List[Entry] = []
    for name, battery in paper_batteries().items():
        tree = PAPER_TREES[name]()
        entries.append((name, tree, battery, event_probabilities(tree)))
    entries += small_random_entries()
    entries += _random_entries(BATCH_RANDOM)
    for pairs in AND_OR_PAIRS:
        name = f"andor{pairs}"
        tree = and_of_ors(pairs)
        entries.append(
            (name, tree, and_or_battery(name, tree),
             event_probabilities(tree))
        )
    return entries


def _random_entries(specs) -> List[Entry]:
    entries: List[Entry] = []
    for seed, n, shape in specs:
        name = random_name(seed, n, shape)
        tree = build_random(seed, n, shape)
        entries.append(
            (name, tree, mixed_battery(name, tree, name in TOP_SETS_OK),
             event_probabilities(tree))
        )
    return entries


def small_random_entries() -> List[Entry]:
    """The enumerable random trees (checked by the semantics oracle)."""
    return _random_entries(SMALL_RANDOM)


def and_or_battery(name: str, tree: FaultTree) -> List[Spec]:
    """AND-of-OR trees: cut sets explode combinatorially, so no
    ``MCS(top)`` here; the cost is Algorithm 1 and kernel apply."""
    pairs = len(tree.basic_events) // 2
    battery: List[Spec] = [
        {"id": "p-top", "kind": "probability", "formula": "P(top)"},
        {"id": "p-cond", "kind": "probability", "formula": "P(top | a1)"},
        {"id": "needs-pair", "formula": "forall (top => (a1 | b1))"},
        {"id": "no-single", "formula": f"exists (top & !a{pairs})"},
        {"id": "idp", "kind": "independence", "formula": "o1",
         "other": f"o{pairs}"},
        {"id": "cex", "kind": "counterexample",
         "formula": "top", "failed": [f"a{i}" for i in range(2, pairs + 1)]},
        {"id": "syn", "kind": "synthesize", "formula": "!top",
         "candidates": ["a1", "b1", "a2", "b2"]},
    ]
    for spec in battery:
        spec["tree"] = name
    return battery


# ----------------------------------------------------------------------
# The serve workloads
# ----------------------------------------------------------------------

#: Server-default PFL weight (``bfl serve --uniform``).
SERVE_UNIFORM = 0.02

#: serve-hot: the paper trees plus two mid-size random trees.
HOT_RANDOM: Tuple[Tuple[int, int, str], ...] = ((3, 40, "c"), (4, 40, "a"))

#: serve-churn: more mid-size random trees than pool slots.
CHURN_RANDOM: Tuple[Tuple[int, int, str], ...] = (
    (5, 30, "a"), (6, 30, "a"), (7, 30, "a"), (1, 30, "b"), (2, 30, "b"),
    (6, 30, "b"), (8, 30, "b"), (6, 30, "c"), (1, 40, "b"), (2, 40, "b"),
    (5, 40, "c"), (6, 40, "c"),
)
CHURN_POOL_SIZE = 3
#: Share of serve-churn requests that carry their own weights.
CHURN_OVERRIDE_SHARE = 0.2
#: Zipf exponent of serve-churn's scenario picks.
CHURN_ZIPF = 0.8

#: Request-level weight overrides (flat maps: they apply to every tree
#: with these events, so each is a new pool key per scenario).
OVERRIDE_PROFILES: Dict[str, Dict[str, float]] = {
    "o1": {"e1": 0.2, "e2": 0.1},
    "o2": {"e3": 0.3},
    "o3": {"e1": 0.05, "e4": 0.25, "e5": 0.15},
    "o4": {"e2": 0.4, "e6": 0.01},
}


def _paper_pool(name: str) -> List[Spec]:
    pools = {
        "covid": [
            {"id": "p1", "formula": "forall (IS => MoT)"},
            {"id": "p3", "formula": "forall (H4 => IWoS)"},
            next(s for s in covid_battery() if s["id"] == "p2-dt"),
            {"id": "p-top", "kind": "probability", "formula": "P(IWoS)"},
            {"id": "mcs", "kind": "mcs"},
        ],
        "fig1": [
            {"id": "mcs", "kind": "mcs"},
            {"id": "cp-alone", "formula": "exists (CP & !CR)"},
            {"id": "p-top", "kind": "probability", "formula": "P(CP/R)"},
        ],
        "fig3": [
            {"id": "ex2", "formula": "exists (MCS(Top) & !e1)"},
            {"id": "p-top", "kind": "probability", "formula": "P(Top)"},
        ],
        "vot": [
            {"id": "mcs", "kind": "mcs"},
            {"id": "p-top", "kind": "probability", "formula": "P(V)"},
        ],
        "table1": [
            {"id": "needs-e2", "formula": "forall (e1 => e2)"},
            {"id": "p-top", "kind": "probability", "formula": "P(e1)"},
        ],
    }
    return pools[name]


def _random_pool(name: str, tree: FaultTree, keep: Tuple[str, ...]) -> List[Spec]:
    return [
        {k: v for k, v in spec.items() if k != "tree"}
        for spec in mixed_battery(name, tree, False)
        if spec["id"] in keep
    ]


#: serve-hot asks for ``MCS(top)`` checks (cached in a warm session);
#: serve-churn only for what a rewarmed kernel answers without new
#: translation, so its misses cost the pool, store and snapshot layers.
HOT_POOL = ("mcs-a", "mcs-c", "p-top")
CHURN_POOL = ("p-top", "p-cond", "idp")


class ServeScenarios:
    """A serve workload's registered trees and per-tree query pools.

    The first tree is registered as the server's ``default`` scenario
    (``--tree``), the rest with ``--scenario NAME=FILE``; ``server_name``
    maps a tree name to the scenario name requests use.
    """

    def __init__(self, trees: Dict[str, FaultTree], pools: Dict[str, List[Spec]]):
        self.trees = trees
        self.pools = pools
        self.names = list(trees)

    def server_name(self, name: str) -> str:
        return "default" if name == self.names[0] else name


def serve_scenarios(workload: str) -> ServeScenarios:
    """Trees as the server sees them: each round-trips through Galileo
    text, exactly what ``--scenario NAME=FILE`` loads."""
    from repro.ft import dumps, loads

    trees: Dict[str, FaultTree] = {}
    pools: Dict[str, List[Spec]] = {}
    if workload == "serve-hot":
        for name, build in PAPER_TREES.items():
            trees[name] = loads(dumps(build()))
            pools[name] = _paper_pool(name)
        specs, keep = HOT_RANDOM, HOT_POOL
    else:
        specs, keep = CHURN_RANDOM, CHURN_POOL
    for seed, n, shape in specs:
        name = random_name(seed, n, shape)
        trees[name] = loads(dumps(build_random(seed, n, shape)))
        pools[name] = _random_pool(name, trees[name], keep)
    return ServeScenarios(trees, pools)


def draw_request(
    workload: str, scenarios: ServeScenarios, rng: random.Random
) -> Tuple[str, List[Spec], str]:
    """One request: ``(tree name, queries, weight profile)``; profile
    ``base`` means the server's default weights."""
    names = scenarios.names
    if workload == "serve-hot":
        name = rng.choice(names)
        profile = "base"
    else:
        weights = [1.0 / (rank + 1) ** CHURN_ZIPF for rank in range(len(names))]
        name = rng.choices(names, weights)[0]
        profile = (
            rng.choice(sorted(OVERRIDE_PROFILES))
            if rng.random() < CHURN_OVERRIDE_SHARE
            else "base"
        )
    pool = scenarios.pools[name]
    count = rng.randint(1, min(3, len(pool)))
    return name, rng.sample(pool, count), profile
