"""Record ``golden.json``: every answer the benchmark can ask for.

Run from the repository root:

    PYTHONPATH=src:perfbench python3 perfbench/record_golden.py

It answers each batch-cold battery on a fresh ``BatchAnalyzer`` and each
serve query pool under the server's weights (and, for serve-churn, under
every override profile), and writes the canonical answers keyed
``<tree>/<query id>`` and ``serve:<tree>/<query id>@<profile>``.  The
paper and semantics oracles in ``oracle.py`` are applied on the way, so
a recording that contradicts them is refused.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

from repro import BatchAnalyzer

import corpus
from oracle import GOLDEN_PATH, Oracle, canonical


def record() -> Dict[str, Any]:
    answers: Dict[str, Any] = {}
    for name, tree, battery, probabilities in corpus.batch_corpus():
        report = BatchAnalyzer(
            {name: tree}, probabilities={name: probabilities}
        ).run(battery)
        for result in report.to_dict()["results"]:
            answers[f"{name}/{result['id']}"] = canonical(result)
    for workload in ("serve-hot", "serve-churn"):
        scenarios = corpus.serve_scenarios(workload)
        profiles = {"base": {}}
        if workload == "serve-churn":
            profiles.update(corpus.OVERRIDE_PROFILES)
        for name, tree in scenarios.trees.items():
            queries = [dict(q, tree=name) for q in scenarios.pools[name]]
            for profile, weights in profiles.items():
                report = BatchAnalyzer(
                    {name: tree},
                    uniform=corpus.SERVE_UNIFORM,
                    probabilities=weights,
                ).run(queries)
                for result in report.to_dict()["results"]:
                    key = f"serve:{name}/{result['id']}@{profile}"
                    answers[key] = canonical(result)
    return answers


def main() -> int:
    answers = record()
    oracle = Oracle(answers, Oracle.independent_checks())
    problems = [
        problem
        for key, answer in answers.items()
        if not key.startswith("serve:")
        and (problem := oracle.verify(key, answer, key)) is not None
    ]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write('{"answers": {\n')
        handle.write(
            ",\n".join(
                f"{json.dumps(key)}: {json.dumps(answers[key], sort_keys=True)}"
                for key in sorted(answers)
            )
        )
        handle.write("\n}}\n")
    print(f"wrote {len(answers)} answers to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
