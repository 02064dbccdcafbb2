"""Command line interface: formats, exit codes, determinism."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import zforce as zf
from zforce.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, *argv):
    """Exit code, stdout and stderr of a run, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_graph6_and_edges(capsys):
    code, out, _ = run(capsys, "gen", "complete", "4")
    assert code == 0 and out.strip() == "C~"
    code, out, _ = run(capsys, "gen", "cycle", "5", "--format", "edges")
    assert out.splitlines()[0] == "5" and "0 1" in out
    code, out, _ = run(capsys, "gen", "petersen", "--format", "dot")
    assert out.startswith("graph G {")


def test_gen_rejects_bad_params(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "cycle", "2"])
    assert exc.value.code == 2


def test_closure_exit_codes(capsys):
    code, out, _ = run(capsys, "closure", "--g6", "Bg", "--set", "0")
    payload = json.loads(out)
    assert code == 0 and payload["complete"] and payload["steps"] == [[0, 1], [1, 2]]
    code, out, _ = run(capsys, "closure", "--g6", "Dhc", "--set", "0")
    assert code == 3 and not json.loads(out)["complete"]


def test_closure_bad_set_is_usage_error(capsys):
    for spec, message in (("0,9", "vertex set '0,9' out of range for n=3"),
                          ("a", "bad vertex set 'a'; expected comma-separated indices")):
        code, out, err = outcome(capsys, "closure", "--g6", "Bg", "--set", spec)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"error: {message}")


def test_exact_json_and_quiet(capsys):
    code, out, _ = run(capsys, "exact", "--g6", "C~")
    payload = json.loads(out)
    assert code == 0 and payload["value"] == 3 and len(payload["witness"]) == 3
    code, out, _ = run(capsys, "exact", "--g6", "C~", "--quiet")
    assert out.strip() == "3"
    # --quiet prints the closure's size, or the constructed set's.
    code, out, _ = run(capsys, "closure", "--g6", "Dhc", "--set", "0", "--quiet")
    assert code == 3 and out == "1\n"
    code, out, _ = run(capsys, "heuristic", "--g6", "C~", "--quiet")
    assert code == 0 and out == "3\n"


def test_exact_budget_exit(capsys):
    code, out, _ = run(capsys, "exact", "--g6", zf.to_graph6(zf.generate("petersen")),
                       "--budget", "2")
    payload = json.loads(out)
    assert code == 4 and not payload["complete"] and payload["value"] is None
    assert len(payload["witness"]) == payload["upper"]


def test_exact_budget_exits_4_only_while_the_interval_is_open(capsys):
    # Petersen reaches its full set at cost 5 within 16 closures, so the
    # interval closes; at 10 it has not, and the witness is n - 1 vertices.
    petersen = zf.to_graph6(zf.generate("petersen"))
    code, out, _ = run(capsys, "exact", "--g6", petersen, "--budget", "16")
    payload = json.loads(out)
    assert code == 0 and payload["complete"] and payload["value"] == 5
    assert len(payload["witness"]) == 5
    code, out, _ = run(capsys, "exact", "--g6", petersen, "--budget", "10")
    payload = json.loads(out)
    assert code == 4 and (payload["lower"], payload["upper"]) == (5, 9)
    assert len(payload["witness"]) == 9
    code, out, _ = run(capsys, "bounds", "--g6", petersen, "--budget", "10", "--quiet")
    assert code == 0 and out.strip() == "0"


def test_exact_budget_zero_runs_no_closure(capsys):
    code, out, _ = run(capsys, "exact", "--g6", "Bg", "--budget", "0")
    payload = json.loads(out)
    assert code == 4 and payload["nodes_explored"] == 0


def test_negative_budget_is_usage_error(capsys):
    for argv in (["exact", "--g6", "Bg", "--budget", "-1"],
                 ["bounds", "--g6", "Bg", "--budget", "-1", "--quiet"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "budget must be >= 0" in capsys.readouterr().err


def test_bounds_solves_only_under_a_budget(capsys):
    # A budget asks for the exact check; without one the report holds the
    # catalog alone.  The solver stays uncapped only in `zforce exact`.
    petersen = zf.to_graph6(zf.generate("petersen"))
    code, out, _ = run(capsys, "bounds", "--g6", petersen, "--budget", "3")
    exact = json.loads(out)["exact"]
    assert code == 0 and not exact["complete"] and exact["lower"] <= 5 <= exact["upper"]
    code, out, _ = run(capsys, "bounds", "--g6", petersen, "--budget", "100000")
    exact = json.loads(out)["exact"]
    assert code == 0 and exact["complete"] and exact["value"] == 5
    code, out, _ = run(capsys, "bounds", "--g6", petersen)
    assert code == 0 and json.loads(out)["exact"] is None


def test_usage_error_shows_the_subcommand_usage(capsys):
    for argv, usage in ((["bounds", "--g6", "Bg", "--exact"], "usage: zforce bounds"),
                        (["closure", "--g6", "Bg", "--set", "9"], "usage: zforce closure")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(usage)


def test_unknown_argument_shows_the_subcommand_usage(capsys):
    for argv, usage in ((["verify", "--bogus"], "usage: zforce verify"),
                        (["bounds", "--g6", "Bg", "--nope"], "usage: zforce bounds")):
        code, out, err = outcome(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(usage)
        assert err.endswith(f"error: unrecognized arguments: {argv[-1]}\n")


def test_closed_output_pipe_exits_quietly():
    # `zforce bounds ... | head -5` where head has already gone away
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(zf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zforce.cli", "bounds", "--g6", "Bg", "--budget", "100000"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b"" and proc.returncode == 0


def test_reader_closing_the_pipe_mid_stream_exits_quietly(tmp_path):
    # `zforce verify ... | head -n 1`: the reader goes away after one line,
    # while verify still has most of its 3,000 records to write.
    source = tmp_path / "petersen.g6"
    source.write_text((zf.to_graph6(zf.petersen()) + "\n") * 3000)
    src = str(Path(zf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen([sys.executable, "-m", "zforce.cli", "verify", str(source)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith(b'{"line": 1, ')
    assert code == 0 and err == b""


def test_python_dash_m_zforce_runs_the_command_line():
    # `python -m zforce` is the `zforce` command under a name that gzip's
    # own `zforce` script cannot shadow.
    src = str(Path(zf.__file__).resolve().parent.parent)
    data = Path(__file__).resolve().parent / "data"
    env = {**os.environ, "PYTHONPATH": src}
    gen = subprocess.run([sys.executable, "-m", "zforce", "gen", "petersen"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (gen.returncode, gen.stdout) == (0, "I?LRCecq?\n")
    batch = str(data / "verify_batch.g6")
    verify = subprocess.run([sys.executable, "-m", "zforce", "verify", batch],
                            capture_output=True, env=env, timeout=120)
    assert verify.returncode == 2  # the two malformed lines
    assert verify.stdout == (data / "verify_batch.jsonl").read_bytes()


def test_heuristic_methods(capsys):
    pet = zf.to_graph6(zf.generate("petersen"))
    for method, options in (("greedy", ()), ("subcubic", ()),
                            ("random", ("--trials", "50", "--seed", "1"))):
        code, out, _ = run(capsys, "heuristic", "--g6", pet, "--method", method, *options)
        payload = json.loads(out)
        assert code == 0 and payload["claim_held"]
        assert payload["method"] in (method, "exceptional")
    code, out, _ = run(capsys, "heuristic", "--g6", "C~")
    payload = json.loads(out)
    assert payload["method"] == "exceptional" and payload["size"] == 3


def test_heuristic_precondition_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heuristic", "--g6", "C~", "--method", "subcubic"])
    assert exc.value.code == 2


def test_heuristic_random_options_need_method_random(capsys):
    # The greedy and subcubic constructions draw nothing, so --trials and
    # --seed would change nothing there: a usage error, before any input is read.
    for method in ("greedy", "subcubic"):
        for option in (["--trials", "5"], ["--seed", "0"]):
            code, out, err = outcome(capsys, "heuristic", "--g6", "IKoz_EOWO",
                                     "--method", method, *option)
            assert code == 2 and out == "" and "--method random" in err
    # random keeps its defaults: 100 trials, seed 0.
    _, default, _ = run(capsys, "heuristic", "--g6", "IKoz_EOWO", "--method", "random")
    _, explicit, _ = run(capsys, "heuristic", "--g6", "IKoz_EOWO", "--method", "random",
                         "--trials", "100", "--seed", "0")
    assert default == explicit


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--g6", "C~", "--budget", "100000")
    payload = json.loads(out)
    assert code == 0
    assert payload["exact"]["value"] == 3
    byname = {e["name"]: e for e in payload["entries"]}
    assert byname["exception_free"]["applicable"] is False
    assert byname["degree_ratio"]["value"]["num"] == 3


def test_expect_values(capsys):
    code, out, _ = run(capsys, "expect", "--g6", "Dhc")
    payload = json.loads(out)
    assert (payload["num"], payload["den"]) == (8, 3)
    code, out, _ = run(capsys, "expect", "--g6", "Dhc", "--quiet")
    assert abs(float(out) - 8 / 3) < 1e-12


def test_verify_stream(tmp_path, capsys):
    lines = [zf.to_graph6(g) for g in (zf.complete(4), zf.cycle(5), zf.g1())]
    src = tmp_path / "batch.g6"
    src.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(src))
    rows = [json.loads(line) for line in out.splitlines()]
    summary = rows[-1]
    assert code == 0 and summary["graphs"] == 3 and summary["violations"] == 0
    assert [r["line"] for r in rows[:-1]] == [1, 2, 3]
    assert rows[0]["z"] == 3


def test_verify_fsppo_reports_no_violation(capsys):
    code, out, _ = run(capsys, "verify", "--g6", "FsPpo")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert rows[0]["violations"] == [] and rows[0]["z"] == 4
    assert rows[-1]["violations"] == 0


def test_verify_honors_exact_limit(capsys):
    pet = zf.to_graph6(zf.generate("petersen"))
    code, out, _ = run(capsys, "verify", "--g6", pet, "--exact-limit", "5")
    first = json.loads(out.splitlines()[0])
    assert code == 0 and "z" not in first


def test_verify_named_corpus_is_clean(tmp_path, capsys, named_graphs):
    batch = tmp_path / "named.g6"
    batch.write_text("\n".join(zf.to_graph6(g) for g in named_graphs.values()) + "\n")
    code, out, _ = run(capsys, "verify", str(batch))
    summary = json.loads(out.splitlines()[-1])
    assert code == 0
    assert summary["violations"] == 0 and summary["conjecture_counterexamples"] == 0


# Connected and cubic, with n = 14 and Z = 7 > 14/3 + 2: a graph that
# breaks the conjectured n/3 + 2 the catalog applies to every D = 3 graph.
THIRD_PLUS_TWO_COUNTEREXAMPLE = "MAICb?HD@@OA@`QA?"


def test_hunt_reports_a_flagged_graph(capsys):
    line = THIRD_PLUS_TWO_COUNTEREXAMPLE
    g = zf.parse_graph6(line)
    assert g.n == 14 and zf.is_connected(g) and set(g.degrees) == {3}
    # Z = 7 apart from the solver: a superset of a forcing set forces, so
    # no forcing 6-subset means no forcing set of 6 or fewer; and the
    # solver's witness of 7 forces.
    assert not any(zf.closure_mask(g, zf.mask_of(sub)) == g.full_mask
                   for sub in combinations(range(g.n), 6))
    witness = zf.zero_forcing_number(g).witness
    assert witness.bit_count() == 7 and zf.closure_mask(g, witness) == g.full_mask
    code, out, err = run(capsys, "verify", "--g6", line, "--exact-limit", "14")
    record, summary = (json.loads(text) for text in out.splitlines())
    assert code == 0
    assert record["z"] == 7 and record["conjecture_flags"] == ["third_plus_two"]
    assert record["conjecture_counterexample"] is True
    assert f"CONJECTURE COUNTEREXAMPLE: {line}" in err.splitlines()
    assert summary["conjecture_counterexamples"] == 1
    # At the default limit of 12 the graph is never solved, so it passes
    # without a flag.
    code, out, err = run(capsys, "verify", "--g6", line)
    record, summary = (json.loads(text) for text in out.splitlines())
    assert (code, err) == (0, "")
    assert "z" not in record and "conjecture_counterexample" not in record
    assert record["conjecture_flags"] == [] and summary["conjecture_counterexamples"] == 0
    # The hunt is no longer a switch: the old flag is a usage error.
    code, out, err = outcome(capsys, "verify", "--g6", line, "--hunt-conjecture")
    assert code == 2 and out == "" and "--hunt-conjecture" in err


def test_hunt_reports_every_conjectured_entry(capsys, monkeypatch):
    # girth_degree is conjectured outside girths 3-6, but a flag there needs
    # minimum degree >= 3 at girth >= 7, so n >= 22 by the Moore bound:
    # plant one where the verify command imports the catalog from.
    from zforce import bounds

    real = bounds.bounds_report

    def flagged(g, **kwargs):
        return dataclasses.replace(real(g, **kwargs), conjecture_flags=("girth_degree",))

    monkeypatch.setattr(bounds, "bounds_report", flagged)
    pet = zf.to_graph6(zf.generate("petersen"))
    code, out, err = run(capsys, "verify", "--g6", pet)
    record, summary = (json.loads(line) for line in out.splitlines())
    assert code == 0
    assert record["conjecture_flags"] == ["girth_degree"]
    assert record["conjecture_counterexample"] is True
    assert err.splitlines() == [f"CONJECTURE COUNTEREXAMPLE: {pet}"]
    assert summary["conjecture_counterexamples"] == 1


def test_a_proven_violation_exits_5(capsys, monkeypatch):
    # No graph breaks a proven bound, so plant one where the verify and
    # bounds commands import the catalog from.
    from zforce import bounds

    real = bounds.bounds_report

    def violated(g, **kwargs):
        return dataclasses.replace(real(g, **kwargs), violations=("degree_ratio",))

    monkeypatch.setattr(bounds, "bounds_report", violated)
    pet = zf.to_graph6(zf.generate("petersen"))
    code, out, _ = run(capsys, "verify", "--g6", pet)
    record, summary = (json.loads(line) for line in out.splitlines())
    assert code == 5
    assert record["violations"] == ["degree_ratio"] and summary["violations"] == 1
    # A violation outranks a malformed line's exit 2.
    code, out, _ = run(capsys, "verify", "--g6", f"{pet}\nC~~~")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 5 and "error" in rows[1]
    assert rows[-1]["violations"] == 1 and rows[-1]["parse_errors"] == 1
    code, out, _ = run(capsys, "bounds", "--g6", pet, "--budget", "100000")
    assert code == 5 and json.loads(out)["violations"] == ["degree_ratio"]
    code, out, _ = run(capsys, "bounds", "--g6", pet, "--budget", "100000", "--quiet")
    assert code == 5 and out == "1\n"


def test_verify_reports_malformed_lines(tmp_path, capsys):
    src = tmp_path / "bad.g6"
    src.write_text("C~\nC~~~\n")
    code, out, _ = run(capsys, "verify", str(src))
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 2
    assert "error" in rows[1]
    assert rows[-1]["parse_errors"] == 1


def test_verify_numbers_lines_as_the_file_and_counts_leading_whitespace(tmp_path, capsys):
    src = tmp_path / "gaps.g6"
    src.write_text("Bg\n\n   \n?\n  Bg!\n\n")
    code, out, _ = run(capsys, "verify", str(src))
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 2
    assert [row.get("line") for row in rows[:-1]] == [1, 4, 5]
    assert rows[1]["graph6"] == "?"
    assert rows[2]["graph6"] == "Bg!" and rows[2]["error"].endswith("(byte offset 4)")
    assert rows[-1]["graphs"] == 3 and rows[-1]["parse_errors"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--g6", "\n  Bg!"])
    assert exc.value.code == 2
    assert "(byte offset 4)" in capsys.readouterr().err


def test_verify_output_is_byte_identical_on_the_fixed_batch(capsys):
    # tests/data/verify_batch.g6: the first 40 graphs of the random corpus,
    # 8 cubic triangle-free and 6 cubic girth-5 corpus graphs, the named
    # graphs, G(n, 3/n) and random cubic girth >= 4 graphs for n = 30..190
    # step 20, the first and last construct-pool graphs, a header line, a
    # malformed header line and a malformed line.  The expected output is
    # kept byte for byte: a change to it must be stated on purpose.
    data = Path(__file__).resolve().parent / "data"
    code, out, _ = run(capsys, "verify", str(data / "verify_batch.g6"))
    assert code == 2  # the two malformed lines
    assert out == (data / "verify_batch.jsonl").read_text()


def test_exact_output_is_byte_identical_on_the_fixed_batch(capsys):
    # tests/data/exact_batch.jsonl: the `zforce exact` JSON of each graph of
    # tests/data/verify_batch.g6 that parses with n <= 12, unbudgeted and at
    # budgets 0, 10 and 50, with the graph and budget in front.  It pins the
    # witnesses, the closure counts and the budget intervals: a change to
    # them must be stated on purpose.
    data = Path(__file__).resolve().parent / "data"
    lines = []
    for line in (data / "verify_batch.g6").read_text().splitlines():
        try:
            g = zf.parse_graph6(line)
        except ValueError:
            continue
        if g.n > 12:
            continue
        for budget in (None, 0, 10, 50):
            argv = ["exact", "--g6", line] + ([] if budget is None else ["--budget", str(budget)])
            code, out, _ = run(capsys, *argv)
            payload = json.loads(out)
            assert code == (0 if payload["complete"] else 4)
            lines.append(json.dumps({"graph6": line, "budget": budget, **payload}) + "\n")
    assert len(lines) == 300
    assert "".join(lines) == (data / "exact_batch.jsonl").read_text()


def test_file_and_stdin_sources(tmp_path, capsys, monkeypatch):
    src = tmp_path / "g.el"
    src.write_text("3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "exact", str(src), "--quiet")
    assert code == 0 and out.strip() == "1"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"Bg\n")))
    code, out, _ = run(capsys, "exact", "-", "--quiet")
    assert code == 0 and out.strip() == "1"


def test_undecodable_input_file_is_usage_error(tmp_path, capsys):
    src = tmp_path / "bad.g6"
    src.write_bytes(b"\xff\n")
    for command in ("exact", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(src)])
        assert exc.value.code == 2
        assert "can't decode byte 0xff in position 0" in capsys.readouterr().err


def test_undecodable_stdin_is_usage_error(capsys, monkeypatch):
    # Strict ASCII as for a file, even where the C or POSIX locale reads
    # stdin with surrogate escapes.
    for command in ("exact", "verify"):
        posix = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="ascii",
                                 errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", posix)
        with pytest.raises(SystemExit) as exc:
            main([command, "-"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "'ascii' codec can't decode byte 0xff in position 0" in captured.err
        assert captured.out == ""


def test_verify_streams_the_records_before_an_undecodable_line(tmp_path, capsys, monkeypatch):
    # Lines are read one at a time: the records before the bad line print,
    # and the error names the bad byte's offset from the start of the input.
    data = b"Bg\n\nBg\n \xff\n"
    src = tmp_path / "bad.g6"
    src.write_bytes(data)
    outs = []
    for source in (str(src), "-"):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        with pytest.raises(SystemExit) as exc:
            main(["verify", source])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "'ascii' codec can't decode byte 0xff in position 8" in captured.err
        outs.append(captured.out)
    assert outs[0] == outs[1]
    assert [json.loads(line)["line"] for line in outs[0].splitlines()] == [1, 3]


def test_file_and_stdin_give_the_same_records_for_the_same_bytes(tmp_path, capsys, monkeypatch):
    # Lines end at "\n" only: CRLF lines parse, and a lone "\r" stays
    # inside its line, from a file as from stdin.
    src = tmp_path / "g.g6"
    results = []
    for data in (b"Bg\r\nBg\r\n", b"Bg\rBg\n"):
        src.write_bytes(data)
        from_file = run(capsys, "verify", str(src))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(capsys, "verify", "-") == from_file
        results.append(from_file)
    (crlf_code, crlf_out, _), (cr_code, cr_out, _) = results
    assert crlf_code == 0 and json.loads(crlf_out.splitlines()[-1])["graphs"] == 2
    record, summary = (json.loads(line) for line in cr_out.splitlines())
    assert cr_code == 2 and summary["graphs"] == 1
    assert record["error"] == "byte 13 outside graph6 range 63..126 (byte offset 2)"


@pytest.mark.parametrize("data, exact_says, verify_says", [
    # Blank lines are skipped but counted; the first non-blank line is the graph.
    (b"\n\n  Bg\n", '"value": 1,', '"line": 3, "graph6": "Bg", "n": 3'),
    # Offsets count the leading whitespace of the line.
    (b"\n  Bg!\n", "(byte offset 4)", '"line": 2, "graph6": "Bg!", "error"'),
    # A lone carriage return stays inside its line.
    (b"Bg\rBg\n", "byte 13 outside graph6 range 63..126 (byte offset 2)",
     "byte 13 outside graph6 range 63..126 (byte offset 2)"),
    # A byte that is not ASCII is named by its offset from the start of the
    # input; the single-graph commands read no further than the first line.
    (b" \xff\n", "can't decode byte 0xff in position 1", "can't decode byte 0xff in position 1"),
    (b"Bg\n \xff\n", '"value": 1,', "can't decode byte 0xff in position 4"),
    # An edge list is all the lines.
    (b"3\n0 1\n\n1 2\n", '"value": 1,', '"line": 4, "graph6": "1 2", "error"'),
])
def test_file_stdin_and_g6_text_read_the_same_bytes_alike(tmp_path, capsys, monkeypatch,
                                                          data, exact_says, verify_says):
    src = tmp_path / "g.in"
    src.write_bytes(data)
    for command, says in (("exact", exact_says), ("verify", verify_says)):
        from_file = outcome(capsys, command, str(src))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert outcome(capsys, command, "-") == from_file
        assert outcome(capsys, command, "--g6", os.fsdecode(data)) == from_file
        assert says in from_file[1] + from_file[2]


def test_verify_g6_text_gives_one_record_per_line(capsys):
    code, out, _ = run(capsys, "verify", "--g6", "Bg\n\nBg")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and [row.get("line") for row in rows[:-1]] == [1, 3]
    assert rows[-1]["graphs"] == 2


@pytest.mark.parametrize("command", ["exact", "bounds", "verify"])
def test_unreadable_input_is_usage_error(tmp_path, capsys, command):
    # A missing file and a directory: exit 2 naming the path, no traceback.
    for path in (tmp_path / "missing.g6", tmp_path):
        code, out, err = outcome(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"usage: zforce {command}")
        assert f"cannot read {path}: " in err


def test_edge_list_order_is_bounded(capsys, monkeypatch):
    # Orders that would overflow, or fill memory, as a list of rows.  The
    # overflow comes first: without the order check it fails at once.
    for data in (b"99999999999999999999 1", b"3000000000"):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = outcome(capsys, "exact")
        assert code == 2 and out == ""
        assert "exceeds 258047, the largest graph6 order" in err


def test_empty_input_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"")))
    with pytest.raises(SystemExit) as exc:
        main(["exact", "-"])
    assert exc.value.code == 2


def test_determinism_random_method(capsys):
    pet = zf.to_graph6(zf.generate("petersen"))
    _, a, _ = run(capsys, "heuristic", "--g6", pet, "--method", "random",
                  "--trials", "40", "--seed", "7")
    _, b, _ = run(capsys, "heuristic", "--g6", pet, "--method", "random",
                  "--trials", "40", "--seed", "7")
    assert a == b
