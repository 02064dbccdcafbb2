"""Benchmark of the zforce package, run from the repository root:

    python3 perfbench/run.py --workload verify_exact --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, times the package on them in
a fresh process, checks every output with ``oracle`` (which imports
nothing from zforce) and prints, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
gives the end-to-end metrics of BENCHMARK.json for the chosen workload;
``--trace 1`` runs a traced pass of every workload and gives the per-layer
metrics, whose names start with the workload they were measured on.
The exit code is 0 only when every output was correct.  ``--toy`` shrinks
the inputs for ``selfcheck.py``.  See README.md for the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CLI = "import sys; from zforce.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ZFORCE_THREADS", None)  # verify runs with its defaults
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdout: Path) -> tuple[float, int, float]:
    """Wall seconds, exit code and peak RSS in MB of one child process."""
    with open(stdout, "w", encoding="ascii") as out, open(stdout.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._seen: dict[str, list[tuple[bool, str]]] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def memo(self, key: str, judge) -> None:
        """Judge an output once; repeated passes print the same outputs."""
        if key not in self._seen:
            self._seen[key] = judge()
        for ok, what in self._seen[key]:
            self.check(ok, what)


def judge_verify(output: dict, expected: list[dict]) -> list[tuple[bool, str]]:
    lines = output["stdout"].splitlines()
    verdicts = []
    for i, want in enumerate(expected):
        try:
            got = json.loads(lines[i])
        except (IndexError, ValueError):
            got = None
        ok = got == want
        if i == len(expected) - 1:
            ok = ok and output["exit"] == 0 and len(lines) == len(expected)
        verdicts.append((ok, f"verify line {i + 1}: got {got!r}, want {want!r}, exit {output['exit']}"))
    return verdicts


def judge_exact(output: dict, g6: str, ref: dict) -> list[tuple[bool, str]]:
    n, adj = oracle.decode_graph6(g6)
    witness = output["witness"] or 0
    ok = (output["complete"] and output["value"] == ref["z"]
          and witness.bit_count() == ref["z"] and oracle.forces(adj, witness))
    return [(ok, f"exact {ref['recipe']}: value {output['value']}, Z {ref['z']}")]


def judge_construct(output: dict, g6: str, ref: dict) -> list[tuple[bool, str]]:
    n, adj = oracle.decode_graph6(g6)
    sizes = {key: output[key].bit_count() for key in ("greedy", "subcubic", "random")}
    bound_ok = {"greedy": 2 * sizes["greedy"] <= n,  # (D-2)n/(D-1) with D = 3
                "subcubic": oracle.subcubic_bound_ok(n, sizes["subcubic"]),
                "random": True}
    verdicts = [(oracle.forces(adj, output[key]) and bound_ok[key] and sizes[key] <= ref[key],
                 f"{key} on {ref['recipe']}: size {sizes[key]}, reference {ref[key]}")
                for key in sizes]
    verdicts.append((output["expected"] == ref["expected"],
                     f"expected_size on {ref['recipe']}: {output['expected']} != {ref['expected']}"))
    return verdicts


def check_ops(workload: str, passes: list[dict], pairs: list[tuple[str, dict]], tally: Tally) -> None:
    if workload.startswith("verify"):
        expected = [oracle.verify_record(i, g6) for i, (g6, _) in enumerate(pairs, start=1)]
        expected.append(oracle.verify_summary(len(pairs)))
    for p in passes:
        for i, (_, output) in enumerate(p["ops"]):
            if workload.startswith("verify"):
                tally.memo(json.dumps(output), lambda: judge_verify(output, expected))
            else:
                g6, ref = pairs[i]
                judge = judge_exact if workload == "exact_hard" else judge_construct
                tally.memo(g6 + json.dumps(output), lambda: judge(output, g6, ref))


def build_inputs(workload: str, seed: int, toy: bool, zf, tally: Tally) -> tuple[list, Path, float]:
    """Set up SETUP_REPEATS times: build inputs, write them, import zforce
    in a fresh interpreter.  Returns the inputs, their file and the median
    set-up time."""
    path = OUT / f"{workload}-seed{seed}.g6"
    times, built = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pairs = workloads.BUILDERS[workload](zf, seed, toy)
        path.write_text("".join(g6 + "\n" for g6, _ in pairs), encoding="ascii")
        _, code, _ = run_child([sys.executable, "-c", "import zforce"], OUT / "import.out")
        times.append(time.perf_counter() - start)
        tally.check(code == 0, "fresh-interpreter import zforce failed")
        built.append(pairs)
    tally.check(all(b == built[0] for b in built), f"{workload} inputs differ between set-ups")
    return built[0], path, statistics.median(times)


def measure(workload: str, pairs: list, path: Path, seconds: float, tally: Tally) -> dict:
    """Closed loop, one client: CLI invocations back to back for the verify
    workloads, else one worker process running whole in-process passes."""
    if workload.startswith("verify"):
        ops, rss = [], 0.0
        while sum(calls[0] for calls, _ in ops) < seconds or not ops:
            stdout = OUT / f"{workload}.out"
            wall, code, peak = run_child([sys.executable, "-c", CLI, "verify", str(path)], stdout)
            ops.append([[wall], {"exit": code, "stdout": stdout.read_text(encoding="ascii")}])
            rss = max(rss, peak)
        passes, graphs_per_op = [{"ops": ops}], len(pairs)
    else:
        result = OUT / f"{workload}-measure.json"
        _, code, rss = run_child([sys.executable, str(HERE / "worker.py"), "measure", workload,
                                  str(path), str(result), str(seconds), "0", "0"], OUT / "worker.out")
        tally.check(code == 0, f"{workload} worker exited {code}, see {OUT / 'worker.err'}")
        passes = json.loads(result.read_text())["passes"] if code == 0 else []
        graphs_per_op = 1
    check_ops(workload, passes, pairs, tally)
    calls = [c for p in passes for op_calls, _ in p["ops"] for c in op_calls]
    if not calls:  # the worker failed, which the tally already counts
        return {"peak_rss_mb": rss}
    return {
        "graphs_per_s": graphs_per_op * sum(len(p["ops"]) for p in passes) / sum(calls),
        "latency_ms.p50": 1000 * statistics.median(calls),
        "peak_rss_mb": rss,
    }


def layer_metrics(workload: str, pairs: list, result: dict) -> dict:
    """Per-layer numbers of one traced workload, per traced pass."""
    passes = result["traced_passes"]
    out = {f"{workload}.trace.overhead_ratio": result["traced_s"] / result["untraced_s"]}
    for totals, per in ((result["setup_totals"], 1), (result["totals"], passes)):
        for name, t in totals.items():
            out[f"{workload}.{name}.calls"] = t["calls"] // per
            out[f"{workload}.{name}.self_s"] = t["self_s"] / per
    girth = result["totals"].get("graph.girth", {"calls": 0})
    out[f"{workload}.graph.girth.calls_per_graph"] = girth["calls"] / passes / len(pairs)
    exact = result["totals"].get("exact.zero_forcing_number")
    if exact:
        out[f"{workload}.forcing.closure_core.calls"] = exact["nodes"] // passes
        out[f"{workload}.forcing.closures_per_s"] = exact["nodes"] / exact["self_s"]
        out[f"{workload}.exact.nodes_per_graph"] = exact["nodes"] / exact["calls"]
    if workload == "construct":
        ops = result["passes"][0]["ops"]
        for key in ("greedy", "subcubic"):
            out[f"{workload}.{key}.size_sum"] = sum(o[key].bit_count() for _, o in ops)
    return out


def import_seconds() -> float:
    """Median cumulative `import zforce.cli` time, from -X importtime."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        run_child([sys.executable, "-X", "importtime", "-c", "import zforce.cli"], OUT / "import.out")
        micros = 0
        for line in (OUT / "import.err").read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].startswith(" zforce") and parts[1].strip().isdigit():
                micros += int(parts[1])
        samples.append(micros / 1e6)
    return statistics.median(samples)


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(), "commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for selfcheck.py")
    args = parser.parse_args()
    if not (ROOT / "src" / "zforce" / "__init__.py").is_file():
        print(f"no zforce package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    import zforce as zf

    tally = Tally()
    record = {"environment": environment(), "args": vars(args), "inputs": {}}
    measured: dict[str, float] = {}
    if args.trace:
        wanted = spec["per_layer"]
        measured["cli.import_s"] = import_seconds()
        for workload in workloads.WORKLOADS:
            pairs, path, _ = build_inputs(workload, args.seed, args.toy, zf, tally)
            record["inputs"][workload] = workloads.describe([g6 for g6, _ in pairs])
            result_path = OUT / f"spans-{workload}-seed{args.seed}.json"
            _, code, _ = run_child(
                [sys.executable, str(HERE / "worker.py"), "trace", workload, str(path), str(result_path),
                 str(args.seconds / len(workloads.WORKLOADS)), str(args.seed), str(int(args.toy))],
                OUT / "worker.out")
            tally.check(code == 0, f"{workload} traced worker exited {code}, see {OUT / 'worker.err'}")
            if code != 0:
                continue
            result = json.loads(result_path.read_text())
            tally.check(result["rebuilt"] == [g6 for g6, _ in pairs], f"{workload} rebuilt inputs differ")
            check_ops(workload, result["passes"], pairs, tally)
            measured.update(layer_metrics(workload, pairs, result))
    else:
        wanted = spec["end_to_end"]
        pairs, path, measured["setup_s"] = build_inputs(args.workload, args.seed, args.toy, zf, tally)
        record["inputs"][args.workload] = workloads.describe([g6 for g6, _ in pairs])
        measured.update(measure(args.workload, pairs, path, args.seconds, tally))

    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    record.update(metrics=measured, attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures)
    mode = "trace" if args.trace else args.workload
    (OUT / f"result-{mode}-seed{args.seed}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps(record["environment"]))
    for workload, description in record["inputs"].items():
        print(workload, json.dumps(description))
    prefix = "" if args.trace else f"{args.workload}."
    for name, m in metrics.items():
        print(f"{prefix}{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{prefix}latency_ms.p50 = {measured.get('latency_ms.p50', 0):.6g} ms (not gated, see README.md)")
    print(f"{prefix}failed_ratio = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted})")
    for failure in tally.failures:
        print("FAILED:", failure)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
