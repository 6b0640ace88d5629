"""Answer oracle: every answer the benchmark sees is checked here.

Three sources, strongest first; an answer must agree with every source
that covers it:

* **paper** — the Sec. VII claims (``ClaimRecord.expected`` from
  :mod:`repro.casestudy.properties`), Table I's counterexample vectors
  and the documented cut/path sets of the Fig. 1, Fig. 3 and VOT trees;
* **semantics** — random trees small enough to enumerate are answered
  again by :class:`repro.logic.ReferenceSemantics` (checks, cut/path
  sets, probabilities, independence, counterexample validity);
* **golden** — ``golden.json``, every answer of the corpus recorded by
  ``record_golden.py``.

An answer is compared in :func:`canonical` form: sets sorted, the
per-query timing dropped; floats agree to a relative 1e-9.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional

from repro.casestudy.covid import HUMAN_ERRORS
from repro.casestudy.properties import PROPERTIES
from repro.checker import ModelChecker
from repro.ft.tree import FaultTree
from repro.logic import MCS, MPS, And, Atom, ReferenceSemantics, parse_formula
from repro.logic.parser import parse_request

import corpus
from corpus import TABLE1

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Result fields that carry the answer (``elapsed_ms`` and the echoed
#: request fields do not).
ANSWER_FIELDS = (
    "ok", "holds", "sets", "vector_count", "counterexample", "independence",
    "probability", "condition_probability", "probabilities", "synthesis",
    "error_kind",
)

#: Cut and path sets the paper states for its small trees.
FIGURE_SETS = {
    "fig1/mcs": [{"IW", "H3"}, {"IT", "H2"}],
    "fig1/mps": [{"IW", "IT"}, {"IW", "H2"}, {"H3", "IT"}, {"H3", "H2"}],
    "fig3/mcs-sat": [{"e1"}, {"e2"}],
    "vot/mcs": [{"a", "b"}, {"a", "c"}, {"b", "c"}],
}


def canonical(result: Mapping[str, Any]) -> Dict[str, Any]:
    """The answer part of one result row, in comparable form."""
    answer = {k: result[k] for k in ANSWER_FIELDS if k in result}
    if "sets" in answer:
        answer["sets"] = sorted(sorted(s) for s in answer["sets"])
    return answer


def same(left: Any, right: Any) -> bool:
    """Deep equality, floats to a relative 1e-9."""
    if isinstance(left, float) or isinstance(right, float):
        return (
            isinstance(left, (int, float))
            and isinstance(right, (int, float))
            and math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-15)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            same(left[k], right[k]) for k in left
        )
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(
            same(a, b) for a, b in zip(left, right)
        )
    return left == right


def _set_list(sets: Any) -> List[FrozenSet[str]]:
    return sorted(
        (frozenset(s) for s in sets or ()), key=lambda s: (len(s), sorted(s))
    )


Check = Callable[[Dict[str, Any]], bool]


def _claims() -> Dict[str, Check]:
    """Sec. VII claims keyed ``covid/<query id>`` (see corpus.py)."""
    outcomes = {spec.pid: spec.run(_covid_checker()) for spec in PROPERTIES}

    def expected(pid: str, index: int) -> Any:
        return outcomes[pid].records[index].expected

    human = set(HUMAN_ERRORS)
    return {
        "covid/p1": lambda a: a.get("holds") == expected("P1", 0),
        "covid/p1-sets": lambda a: _set_list(a.get("sets"))
        == _set_list(expected("P1", 1)),
        "covid/p2": lambda a: a.get("holds") == expected("P2", 0),
        "covid/p2-dt": lambda a: a.get("holds") == expected("P2", 1),
        "covid/p3": lambda a: a.get("holds") == expected("P3", 0),
        "covid/p4": lambda a: a.get("holds") == expected("P4", 0),
        "covid/p4-count": lambda a: len(a.get("sets") or ())
        == expected("P4", 1),
        "covid/p5": lambda a: _set_list(a.get("sets"))
        == _set_list(expected("P5", 0)),
        "covid/p6": lambda a: a.get("holds") == expected("P6", 0),
        "covid/p7": lambda a: _set_list(a.get("sets"))
        == _set_list(expected("P7", 0))
        and _set_list(s for s in a["sets"] if set(s) <= human)
        == _set_list(expected("P6", 1)),
        "covid/p8": lambda a: (a.get("independence") or {}).get("independent")
        == expected("P8", 0)
        and frozenset(a["independence"]["shared"]) == expected("P8", 1),
        "covid/p9": lambda a: a.get("holds") == expected("P9", 0),
    }


def _covid_checker() -> ModelChecker:
    from repro.casestudy import build_covid_tree

    return ModelChecker(build_covid_tree())


def _paper_checks() -> Dict[str, Check]:
    checks = _claims()
    order = ("e2", "e4", "e5")
    for row, (_formula, _example, output) in TABLE1.items():
        checks[f"table1/{row}"] = (
            lambda a, output=output: tuple(
                int(a["counterexample"]["vector"][e]) for e in order
            ) == output
        )
    for key, sets in FIGURE_SETS.items():
        checks[key] = lambda a, sets=sets: _set_list(a.get("sets")) == (
            _set_list(sets)
        )
    return checks


def _semantic_checks(
    name: str,
    tree: FaultTree,
    battery: List[Dict[str, Any]],
    probabilities: Mapping[str, float],
) -> Dict[str, Check]:
    """Enumerative re-answers for one small tree's battery."""
    ref = ReferenceSemantics(tree)
    events = list(tree.basic_events)
    vectors = list(ref.iter_vectors())

    def weight(vector: Mapping[str, bool]) -> float:
        return math.prod(
            probabilities[e] if vector[e] else 1.0 - probabilities[e]
            for e in events
        )

    def prob(formula) -> float:
        return sum(weight(v) for v in vectors if ref.holds(formula, v))

    checks: Dict[str, Check] = {}
    for spec in battery:
        key = f"{name}/{spec['id']}"
        kind = spec.get("kind", "check")
        if kind == "check":
            statement, _ = parse_request(spec["formula"])
            truth = ref.holds(statement)
            checks[key] = lambda a, truth=truth: a.get("holds") is truth
        elif kind == "probability":
            query, _ = parse_request(spec["formula"])
            if query.condition is not None:
                value = prob(And(query.formula, query.condition)) / prob(
                    query.condition
                )
            else:
                value = prob(query.formula)
            checks[key] = lambda a, value=value: math.isclose(
                a["probability"], value, rel_tol=1e-9, abs_tol=1e-15
            )
        elif kind == "independence":
            left = ref.influencing_basic_events(parse_formula(spec["formula"]))
            right = ref.influencing_basic_events(parse_formula(spec["other"]))
            shared = left & right
            checks[key] = lambda a, shared=shared: frozenset(
                a["independence"]["shared"]
            ) == shared and a["independence"]["independent"] is (not shared)
        elif kind == "counterexample":
            formula = parse_formula(spec["formula"])
            checks[key] = lambda a, formula=formula: ref.holds(
                formula, {e: bool(v) for e, v in a["counterexample"]["vector"].items()}
            )
        elif kind in ("mcs", "mps"):
            # Minimality is scoped to the top's support (the checker's
            # default scope): events outside it are don't-cares.
            op = MCS if kind == "mcs" else MPS
            support = ref.influencing_basic_events(Atom(tree.top))
            found = ref.satisfying_vectors(op(Atom(tree.top)))
            sets = {
                frozenset(e for e in support if v[e] == (kind == "mcs"))
                for v in found
            }
            checks[key] = lambda a, sets=sets: _set_list(a.get("sets")) == (
                _set_list(sets)
            )
    return checks


class Oracle:
    """Checks canonical answers keyed ``<tree>/<query id>[@profile]``."""

    def __init__(
        self,
        golden: Mapping[str, Any],
        checks: Mapping[str, Check],
    ) -> None:
        self.golden = golden
        self.checks = checks

    @classmethod
    def build(cls, golden_path: Optional[Path] = None) -> "Oracle":
        with open(golden_path or GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)["answers"]
        return cls(golden, cls.independent_checks())

    @staticmethod
    def independent_checks() -> Dict[str, Check]:
        """Paper checks plus enumerative checks of the small trees."""
        checks = _paper_checks()
        for name, tree, battery, probabilities in corpus.small_random_entries():
            checks.update(_semantic_checks(name, tree, battery, probabilities))
        return checks

    def verify(
        self, key: str, answer: Dict[str, Any], check_key: Optional[str] = None
    ) -> Optional[str]:
        """``None`` when ``answer`` is right, else why it is wrong.

        ``key`` names the golden answer; ``check_key`` the paper or
        semantics check that also applies, if any (serve answers reuse
        the batch checks for weight-independent queries).
        """
        if not answer.get("ok"):
            return f"{key}: query failed ({answer.get('error_kind')})"
        check = self.checks.get(check_key) if check_key else None
        if check is not None:
            try:
                if not check(answer):
                    return f"{key}: disagrees with the paper/semantics oracle"
            except (KeyError, TypeError) as exc:
                return f"{key}: malformed answer ({exc!r})"
        if key not in self.golden:
            return f"{key}: no golden answer recorded"
        if not same(answer, self.golden[key]):
            return f"{key}: differs from the golden answer"
        return None


def perturbed(golden: Mapping[str, Any], key: str) -> Dict[str, Any]:
    """A copy of ``golden`` with the answer under ``key`` made wrong."""
    answers = json.loads(json.dumps(golden))
    answer = answers["answers"][key]
    if "holds" in answer:
        answer["holds"] = not answer["holds"]
    elif "probability" in answer:
        answer["probability"] = answer["probability"] * 1.5 + 1e-6
    elif "sets" in answer:
        answer["sets"] = answer["sets"][1:] + [["__perturbed__"]]
    else:
        answer["ok"] = not answer.get("ok")
    return answers


__all__ = ["Oracle", "canonical", "perturbed", "same"]
