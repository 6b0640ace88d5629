"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

1. A golden answer perturbed in a copy of ``golden.json`` must make the
   run fail (exit code 1, ``"correct": false``) on batch-cold and on
   serve-hot.
2. In a directory that holds only ``BENCHMARK.json`` and ``perfbench/``
   the benchmark must exit nonzero without printing a result.
3. ``BENCHMARK.json`` must name exactly the metrics ``run.py`` prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, ROOT, SRC, WORK

RUN = BENCH_DIR / "run.py"

#: (workload, golden key to perturb, seconds)
PERTURBATIONS = (
    ("batch-cold", "covid/p-top", 1),
    ("serve-hot", "serve:covid/p1@base", 2),
)


def _run(args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def perturbed_golden_fails() -> None:
    sys.path.insert(0, str(SRC))
    from oracle import GOLDEN_PATH, perturbed

    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    scratch = WORK / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    for workload, key, seconds in PERTURBATIONS:
        path = scratch / "golden.json"
        path.write_text(json.dumps(perturbed(golden, key)), encoding="utf-8")
        proc = _run(
            [str(RUN), "--workload", workload, "--seed", "1", "--seconds",
             str(seconds), "--trace", "0", "--golden", str(path)],
            ROOT,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert proc.returncode == 1, (workload, proc.returncode, proc.stderr)
        assert result["correct"] is False and result["failed"] > 0, result
        print(f"ok: perturbed {key} fails {workload} "
              f"({result['failed']} of {result['attempted']} wrong)")
    shutil.rmtree(scratch)


def bare_directory_fails() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, bare / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [*command, "--workload", "batch-cold", "--seed", "1", "--seconds",
         "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0, proc.returncode
    assert '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print(f"ok: bare directory exits {proc.returncode} without a result")


def metric_names_match() -> None:
    sys.path.insert(0, str(SRC))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, names in (
        ("end_to_end", run.END_TO_END), ("per_layer", run.per_layer_metrics())
    ):
        declared = [(m["name"], m["unit"]) for m in spec[section]]
        assert declared == list(names), (section, declared, names)
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(run.WORKLOADS), workloads
    print("ok: BENCHMARK.json matches run.py")


if __name__ == "__main__":
    metric_names_match()
    bare_directory_fails()
    perturbed_golden_fails()
