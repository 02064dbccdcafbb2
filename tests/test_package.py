"""The package surface: lazy names, resolved in their defining modules."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zforce as zf

SRC = str(Path(zf.__file__).resolve().parent.parent)

SURFACE = [
    "BoundEntry", "BoundReport", "ExactResult", "ExceptionalGraph", "ExtensionSubgraph",
    "ForcingStep", "ForcingTrace", "Graph", "Graph6Error", "HeuristicResult", "VertexSet",
    "bit_list", "bits", "bounds_report", "brute_force_oracle", "closure", "closure_mask",
    "complete", "complete_bipartite", "complete_bipartite_parts", "cycle",
    "exceptional_tag", "expected_size", "find_extension_subgraph", "find_seed", "g1", "g2",
    "generate", "girth", "girth5_regular_factor", "greedy_extend", "greedy_ratio_zfs",
    "harmonic", "heawood", "is_connected", "is_zero_forcing_set", "log2_overestimate",
    "lower_girth_degree", "mask_of", "parse_edge_list", "parse_graph6", "path",
    "permutation_to_set", "petersen", "random_gnp", "random_regular", "random_zfs",
    "shortest_cycle", "subcubic_girth5_value", "subcubic_girth5_zfs", "subdivided_k33",
    "to_dot", "to_edge_list", "to_graph6", "trace_violation",
    "vertex_probability", "zero_forcing_number",
]


def loaded_after(code: str) -> list[str]:
    """The zforce modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys, json\n" \
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('zforce'))))"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_results_rebuild_through_the_fields_the_benchmark_plants_into():
    # perfbench/selfcheck.py plants a wrong Z, an extra conjecture flag and
    # a larger greedy set with dataclasses.replace on these three fields.
    g = zf.petersen()
    res = zf.zero_forcing_number(g)
    wrong = dataclasses.replace(res, value=res.value + 1)
    assert (wrong.value, wrong.witness, wrong.lower, wrong.upper, wrong.complete) == (
        6, res.witness, 5, 5, True)
    report = zf.bounds_report(g, res)
    flagged = dataclasses.replace(report, conjecture_flags=report.conjecture_flags + ("planted",))
    assert flagged.conjecture_flags == ("planted",) and flagged.entries == report.entries
    built = zf.greedy_ratio_zfs(g)
    spare = g.full_mask & ~built.zfs
    bigger = dataclasses.replace(built, zfs=built.zfs | (spare & -spare))
    assert (bigger.size, bigger.bound_claim) == (built.size + 1, built.bound_claim)


def test_import_loads_no_submodule():
    assert loaded_after("import zforce") == ["zforce"]


def test_surface_is_pinned():
    assert sorted(zf.__all__) == SURFACE
    assert set(SURFACE) <= set(dir(zf))


def test_names_are_the_defining_modules_objects():
    for name in zf.__all__:
        module = importlib.import_module(f"zforce.{zf._MODULE_OF[name]}")
        assert getattr(zf, name) is getattr(module, name), name


def test_names_are_not_cached_in_the_package():
    loaded = loaded_after("import zforce\n"
                          "for name in zforce.__all__:\n"
                          "    getattr(zforce, name)\n"
                          "    assert name not in vars(zforce), name")
    assert len(loaded) == 1 + len(set(zf._MODULE_OF.values()))


def test_monkeypatch_on_the_defining_module_shows_through(monkeypatch):
    from zforce import exact

    def fake(g, budget=None):
        return "patched"

    monkeypatch.setattr(exact, "zero_forcing_number", fake)
    assert zf.zero_forcing_number is fake
    monkeypatch.undo()
    assert zf.zero_forcing_number is exact.zero_forcing_number


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        zf.not_a_name
    assert not hasattr(zf, "_seed_start")


def test_submodules_resolve_from_the_package():
    assert zf.heuristics is importlib.import_module("zforce.heuristics")


def test_only_a_budget_stop_loads_the_rational_bounds():
    # The exact solver needs ratmath (and with it fractions and decimal)
    # only for the static lower bound of a stopped component.
    solve = "import zforce as zf\nzf.zero_forcing_number(zf.path(3){})\n"
    assert "zforce.ratmath" not in loaded_after(solve.format(""))
    assert "zforce.ratmath" in loaded_after(solve.format(", 0"))


@pytest.mark.parametrize("argv", [["exact", "--quiet", "--g6", "C~"],
                                  ["closure", "--quiet", "--g6", "C~", "--set", "0,1,2"],
                                  ["gen", "petersen"]])
def test_light_commands_load_neither_heuristics_nor_bounds(argv):
    loaded = loaded_after(
        "import contextlib, io\n"
        "from zforce.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n")
    assert "zforce.heuristics" not in loaded and "zforce.bounds" not in loaded


@pytest.mark.parametrize("command", ["verify", "bounds", "expect"])
def test_catalog_commands_load_the_bounds_but_not_the_constructions(command):
    argv = [command, "--g6", zf.to_graph6(zf.petersen())]
    loaded = loaded_after(
        "import contextlib, io\n"
        "from zforce.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n")
    assert "zforce.bounds" in loaded and "zforce.heuristics" not in loaded
