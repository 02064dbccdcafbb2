"""Self check of the benchmark at toy sizes, from the repository root:

    python3 perfbench/selfcheck.py

Copies the benchmark and src/ into three scratch trees under out/ and runs
``run.py --toy`` in each:

* clean: every workload passes and prints exactly the end-to-end metrics
  of BENCHMARK.json, and a traced run prints exactly its per-layer metrics;
* planted: zforce/__init__.py gets an off-by-one Z, an extra conjecture
  flag and a greedy set one vertex too large, and every workload must
  report failures and exit nonzero;
* bare: with no src/ the benchmark exits nonzero without a result line.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "selfcheck"

PLANTED = '''

# Planted faults for perfbench/selfcheck.py; each workload must notice one.
import dataclasses as _dataclasses
import sys as _sys
from . import bounds as _bounds, exact as _exact, heuristics as _heuristics


def _plant(module, name, make):
    original = getattr(module, name)
    planted = make(original)
    for mod in list(_sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("zforce") and vars(mod).get(name) is original:
            setattr(mod, name, planted)


def _z_plus_one(solve):
    def planted(*args, **kwargs):
        res = solve(*args, **kwargs)
        return _dataclasses.replace(res, value=res.value + 1) if res.complete else res
    return planted


def _extra_flag(report):
    def planted(*args, **kwargs):
        res = report(*args, **kwargs)
        return _dataclasses.replace(res, conjecture_flags=res.conjecture_flags + ("planted",))
    return planted


def _one_more_vertex(build):
    def planted(g, *args, **kwargs):
        res = build(g, *args, **kwargs)
        spare = g.full_mask & ~res.zfs
        return _dataclasses.replace(res, zfs=res.zfs | (spare & -spare))
    return planted


_plant(_exact, "zero_forcing_number", _z_plus_one)
_plant(_bounds, "bounds_report", _extra_flag)
_plant(_heuristics, "greedy_ratio_zfs", _one_more_vertex)
'''


def make_tree(name: str, with_src: bool) -> Path:
    tree = SCRATCH / name
    shutil.rmtree(tree, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(HERE, tree / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    if with_src:
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
    return tree


def run(tree: Path, workload: str, trace: int) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--toy", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok      " if ok else "FAILED  ") + what, flush=True)
        if not ok:
            problems.append(what)

    clean = make_tree("clean", with_src=True)
    for workload in workloads.WORKLOADS:
        code, result = run(clean, workload, 0)
        expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0
               and set(result["metrics"]) == end_to_end
               and all(m["value"] > 0 for m in result["metrics"].values()),
               f"clean {workload}: correct, every end-to-end metric emitted and nonzero")
    code, result = run(clean, "verify_exact", 1)
    expect(code == 0 and result is not None and result["correct"]
           and set(result["metrics"]) == per_layer,
           "clean traced run: correct, every per-layer metric emitted")

    planted = make_tree("planted", with_src=True)
    with open(planted / "src" / "zforce" / "__init__.py", "a", encoding="ascii") as handle:
        handle.write(PLANTED)
    for workload in workloads.WORKLOADS:
        code, result = run(planted, workload, 0)
        expect(code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
               f"planted {workload}: failures counted, nonzero exit")

    bare = make_tree("bare", with_src=False)
    code, result = run(bare, "verify_exact", 0)
    expect(code != 0 and result is None, "bare tree: nonzero exit and no result line")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
