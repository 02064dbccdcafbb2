"""In-process passes over one workload's inputs, in a fresh interpreter.

    python3 perfbench/worker.py <mode> <workload> <inputs.g6> <result.json> <seconds> <seed> <toy>

``measure`` runs whole passes, untraced, until about ``seconds`` of work
is done and records the time of every call and the output of every
operation.
``trace`` alternates untraced and traced passes; a traced pass wraps the
public functions in TRACED with a span recorder, rebound in every zforce
module that imported them, and also rebuilds the inputs with the random
models wrapped, for the set-up layers.  Outputs are plain ints and
strings, so the parent checks them without importing zforce.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import zforce as zf  # noqa: E402
from zforce import cli  # noqa: E402

# Public functions timed by the traced run.  closure_core is counted from
# ExactResult.nodes_explored instead: a span per call would swamp the
# solver it measures.
TRACED = (
    "cli.main", "codec.parse_graph6",
    "graph.girth", "graph.shortest_cycle", "graph.components",
    "families.exceptional_tag",
    "forcing.closure", "forcing.permutation_to_set",
    "exact.zero_forcing_number",
    "bounds.bounds_report", "bounds.upper_exception_free", "bounds.upper_regular_girth5",
    "bounds.upper_cubic_trianglefree", "bounds.classify_vertex",
    "heuristics.find_seed", "heuristics.greedy_extend", "heuristics.subcubic_girth5_zfs",
    "heuristics.find_extension_subgraph", "heuristics.random_zfs",
    "heuristics.expected_size", "heuristics.vertex_probability",
    "ratmath.log2_overestimate",
)
SETUP_TRACED = ("families.random_gnp", "families.random_regular")
SPAN_NAMES = {"cli.main": "cli.verify"}


class Tracer:
    """Spans [name, start, end, parent index, nodes explored] kept in memory."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if isinstance(result, zf.ExactResult):
                span[4] = result.nodes_explored
            return result

        return traced

    def __enter__(self):
        modules = [m for name, m in sys.modules.items() if name == "zforce" or name.startswith("zforce.")]
        for qualified in self.names:
            module, attr = qualified.split(".")
            original = getattr(importlib.import_module(f"zforce.{module}"), attr, None)
            if original is None:
                continue  # gone from the package; its metrics read 0
            wrapper = self._wrap(SPAN_NAMES.get(qualified, qualified), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, value in reversed(self._saved):
            setattr(mod, key, value)
        self._saved.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self seconds and nodes explored."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, nodes), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "nodes": 0})
            entry["calls"] += 1
            entry["self_s"] += end - start - covered
            entry["nodes"] += nodes
        return out


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def run_pass(workload: str, inputs: Path, graphs: list) -> list[list]:
    """One pass: per operation, the seconds of each call into zforce and
    the output."""
    return [OPERATIONS[workload](g, inputs)
            for g in ([None] if workload.startswith("verify") else graphs)]


def verify_op(_, inputs: Path) -> list:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        seconds, code = timed(cli.main, ["verify", str(inputs)])
    return [[seconds], {"exit": code, "stdout": buffer.getvalue()}]


def exact_op(g, _) -> list:
    seconds, res = timed(zf.zero_forcing_number, g)
    return [[seconds], {"value": res.value, "witness": res.witness, "complete": res.complete}]


def construct_op(g, _) -> list:
    calls = [timed(zf.greedy_ratio_zfs, g), timed(zf.subcubic_girth5_zfs, g),
             timed(zf.random_zfs, g, workloads.RANDOM_TRIALS, workloads.RANDOM_SEED),
             timed(zf.expected_size, g)]
    greedy, subcubic, rand, expected = (result for _, result in calls)
    return [[seconds for seconds, _ in calls], {
        "greedy": greedy.zfs, "subcubic": subcubic.zfs, "random": rand.zfs,
        "expected": [expected.numerator, expected.denominator],
    }]


OPERATIONS = {"verify_exact": verify_op, "verify_bounds": verify_op,
              "exact_hard": exact_op, "construct": construct_op}


def measure(workload: str, inputs: Path, graphs: list, seconds: float) -> dict:
    """Whole passes, as many as fit in ``seconds`` judged by the first."""
    passes = []
    while True:
        ops = run_pass(workload, inputs, graphs)
        passes.append({"ops": ops})
        if len(passes) == 1:
            wanted = max(1, round(seconds / sum(sum(calls) for calls, _ in ops)))
        if len(passes) >= wanted:
            return {"passes": passes}


def trace(workload: str, inputs: Path, graphs: list, seconds: float, seed: int, toy: bool) -> dict:
    """Untraced and traced passes in turn until ``seconds`` is spent."""
    with Tracer(SETUP_TRACED) as setup:
        rebuilt = [g6 for g6, _ in workloads.BUILDERS[workload](zf, seed, toy)]
    passes, traced = [], Tracer(TRACED)
    untraced_s = traced_s = 0.0
    while not passes or untraced_s + traced_s < seconds:
        start = time.perf_counter()
        passes.append({"ops": run_pass(workload, inputs, graphs)})
        untraced_s += time.perf_counter() - start
        with traced:
            start = time.perf_counter()
            passes.append({"ops": run_pass(workload, inputs, graphs)})
            traced_s += time.perf_counter() - start
    return {
        "passes": passes,
        "rebuilt": rebuilt,
        "traced_passes": len(passes) // 2,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "setup_totals": setup.totals(),
        "totals": traced.totals(),
        "spans": traced.spans,
    }


def main(argv: list[str]) -> None:
    mode, workload, inputs, result, seconds, seed, toy = argv
    inputs = Path(inputs)
    graphs = []
    for line in inputs.read_text(encoding="ascii").split():
        n, adj = oracle.decode_graph6(line)
        graphs.append(zf.Graph(n, tuple(adj)))
    if mode == "measure":
        out = measure(workload, inputs, graphs, float(seconds))
    else:
        out = trace(workload, inputs, graphs, float(seconds), int(seed), toy == "1")
    with open(result, "w", encoding="ascii") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
