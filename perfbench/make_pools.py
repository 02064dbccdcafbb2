"""Regenerate the input pools under data/ and their reference answers.

Run once, from the repository root, against the commit whose answers are
the reference (the seed commit for the files checked in):

    python3 perfbench/make_pools.py

``exact_hard.json`` holds each graph with its Z from the package's exact
solver, with the witness replayed by ``oracle.forces``.  ``construct.json``
holds each graph with the sizes of the sets ``greedy_ratio_zfs``,
``subcubic_girth5_zfs`` and ``random_zfs`` built and the exact
``expected_size``.  A benchmark run fails any answer that is wrong or, for
a constructed set, larger than its reference.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import zforce as zf  # noqa: E402


def exact_hard_pool() -> list[dict]:
    # Many mid-size solves, so that the median solve time is not one graph's.
    graphs = [("gnp", n, zf.random_gnp(n, 0.4, s), s) for n in (16, 17, 18) for s in range(4)]
    graphs += [("gnp", 19, zf.random_gnp(19, 0.4, s), s) for s in (0, 1)]
    graphs.append(("gnp", 20, zf.random_gnp(20, 0.4, 0), 0))
    graphs += [("cubic_girth5", n, zf.random_regular(n, 3, 0, min_girth=5), 0)
               for n in (20, 22, 24, 26)]
    out = []
    for kind, n, g, s in graphs:
        start = time.perf_counter()
        res = zf.zero_forcing_number(g)
        seconds = time.perf_counter() - start
        if not oracle.forces(list(g.adj), res.witness) or res.witness.bit_count() != res.value:
            raise AssertionError(f"bad witness for {kind} n={n} seed={s}")
        out.append({"graph6": workloads.graph6_of(g), "recipe": f"{kind} n={n} seed={s}",
                    "z": res.value, "closures": res.nodes_explored})
        print(f"exact_hard {kind} n={n} seed={s}: Z={res.value} "
              f"closures={res.nodes_explored} {seconds:.2f}s", flush=True)
    return out


def construct_pool() -> list[dict]:
    out = []
    for n in workloads.CONSTRUCT_ORDERS:
        for s in range(workloads.CONSTRUCT_POOL_PER_ORDER):
            g = zf.random_regular(n, 3, s, min_girth=5)
            expected = zf.expected_size(g)
            out.append({
                "graph6": workloads.graph6_of(g), "n": n, "recipe": f"cubic_girth5 n={n} seed={s}",
                "greedy": zf.greedy_ratio_zfs(g).size,
                "subcubic": zf.subcubic_girth5_zfs(g).size,
                "random": zf.random_zfs(g, workloads.RANDOM_TRIALS, workloads.RANDOM_SEED).size,
                "expected": [expected.numerator, expected.denominator],
            })
        print(f"construct n={n}: {workloads.CONSTRUCT_POOL_PER_ORDER} graphs", flush=True)
    return out


def main() -> None:
    for name, graphs in (("exact_hard", exact_hard_pool()), ("construct", construct_pool())):
        path = workloads.DATA / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"made_by": "perfbench/make_pools.py", "graphs": graphs}, handle, indent=0)
            handle.write("\n")


if __name__ == "__main__":
    main()
