"""Command line front door.

Subcommands: closure, exact, heuristic, bounds, verify, gen, expect.
Single results print as pretty JSON, streams as JSON lines; --quiet
prints bare numbers for scripting.  Exit codes are part of the stable
interface: 0 ok, 2 usage, 3 closure fell short, 4 the budget ran out
before the exact interval closed, 5 proven-bound violation.

Only the graph, codec and family modules load with this one; each
subcommand imports what it runs, so ``zforce exact`` never compiles the
heuristics or the bound catalog.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from typing import Iterator

from .codec import (
    looks_like_graph6,
    parse_edge_list,
    parse_graph6,
    to_dot,
    to_edge_list,
    to_graph6,
)
from .families import family_names, generate
from .graph import Graph, bit_list, mask_of

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_FORCING = 3
EXIT_BUDGET = 4
EXIT_VIOLATION = 5


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _input_lines(args: argparse.Namespace) -> Iterator[tuple[int, str]]:
    """The non-blank input lines of every command, numbered as in the
    input and read lazily from ``--g6`` text, the source file or stdin.

    All three are read as bytes and split alike: ``--g6`` text as the
    bytes the shell passed.  Lines end at a line feed only (a lone
    carriage return stays inside its line), and blank lines are skipped
    without renumbering.  Each line is decoded as strict ASCII, whatever
    the locale, and keeps its leading whitespace, so graph6 error offsets
    count it.  A file that cannot be opened is bad input (ValueError).
    """
    if args.g6 is not None:
        source = io.BytesIO(os.fsencode(args.g6))
    elif args.source is None or args.source == "-":
        source = contextlib.nullcontext(sys.stdin.buffer)
    else:
        try:
            source = open(args.source, "rb")
        except OSError as exc:
            raise ValueError(f"cannot read {args.source}: {exc.strerror}") from None
    offset = 0
    with source as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("ascii")
            except UnicodeDecodeError as exc:
                # Name the offset from the start of the input, not of the line.
                raise ValueError(f"'ascii' codec can't decode byte 0x{raw[exc.start]:02x} "
                                 f"in position {offset + exc.start}: {exc.reason}") from None
            offset += len(raw)
            line = line.removesuffix("\n")
            if line.strip():
                yield lineno, line


def _load_graph(args: argparse.Namespace) -> Graph:
    """The first non-blank input line as graph6, or else all the input
    lines as an edge list."""
    lines = (line for _, line in _input_lines(args))
    first = next(lines, None)
    if first is None:
        raise ValueError("empty graph input")
    if looks_like_graph6(first):
        return parse_graph6(first)
    return parse_edge_list("\n".join([first, *lines]))


def _parse_set(spec: str, g: Graph) -> int:
    try:
        verts = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"bad vertex set {spec!r}; expected comma-separated indices") from None
    if any(not 0 <= v < g.n for v in verts):
        raise ValueError(f"vertex set {spec!r} out of range for n={g.n}")
    return mask_of(verts)


def _add_source_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("source", nargs="?", default=None,
                     help="graph file (graph6 or edge list); '-' or omitted reads stdin")
    sub.add_argument("--g6", default=None,
                     help="inline graph6 string, split at newlines like a file")


def _add_quiet(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--quiet", action="store_true",
                     help="print a bare number instead of JSON")


def _cmd_closure(args) -> int:
    from .forcing import closure

    g = _load_graph(args)
    z = _parse_set(args.set, g)
    trace = closure(g, z)
    complete = trace.closure == g.full_mask
    if args.quiet:
        print(trace.closure.bit_count())
    else:
        payload = trace.to_json_dict()
        payload["complete"] = complete
        _emit(payload)
    return EXIT_OK if complete else EXIT_NOT_FORCING


def _cmd_exact(args) -> int:
    from .exact import zero_forcing_number

    g = _load_graph(args)
    res = zero_forcing_number(g, args.budget)
    if args.quiet:
        print(res.value if res.complete else f"{res.lower}:{res.upper}")
    else:
        _emit({
            "value": res.value,
            "witness": bit_list(res.witness),
            "nodes_explored": res.nodes_explored,
            "complete": res.complete,
            "lower": res.lower,
            "upper": res.upper,
        })
    return EXIT_OK if res.complete else EXIT_BUDGET


def _cmd_heuristic(args) -> int:
    from .heuristics import greedy_ratio_zfs, random_zfs, subcubic_girth5_zfs

    if args.method != "random" and (args.trials is not None or args.seed is not None):
        raise ValueError("--trials and --seed set the random-order draws; they need --method random")
    g = _load_graph(args)
    if args.method == "greedy":
        res = greedy_ratio_zfs(g)
    elif args.method == "subcubic":
        res = subcubic_girth5_zfs(g)
    else:
        res = random_zfs(g, 100 if args.trials is None else args.trials,
                         0 if args.seed is None else args.seed)
    if args.quiet:
        print(res.size)
    else:
        payload = res.to_json_dict(g)
        payload["claim_held"] = res.size <= res.bound_claim
        _emit(payload)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from .bounds import bounds_report
    from .exact import zero_forcing_number

    g = _load_graph(args)
    exact = None if args.budget is None else zero_forcing_number(g, args.budget)
    report = bounds_report(g, exact=exact)
    if args.quiet:
        print(len(report.violations))
    else:
        _emit(report.to_json_dict(g))
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_verify(args) -> int:
    from .bounds import bounds_report
    from .exact import zero_forcing_number

    graphs = violations = counterexamples = errors = 0
    for lineno, line in _input_lines(args):
        graphs += 1
        record = {"line": lineno, "graph6": line.strip()}
        try:
            g = parse_graph6(line)
        except ValueError as exc:
            record["error"] = str(exc)
            errors += 1
        else:
            exact = zero_forcing_number(g) if g.n <= args.exact_limit else None
            report = bounds_report(g, exact=exact)
            record.update(n=g.n, violations=list(report.violations),
                          conjecture_flags=list(report.conjecture_flags))
            violations += len(report.violations)
            if exact is not None:
                record["z"] = exact.value
            if report.conjecture_flags:
                record["conjecture_counterexample"] = True
                counterexamples += 1
                print("CONJECTURE COUNTEREXAMPLE:", record["graph6"], file=sys.stderr)
        print(json.dumps(record))
    summary = {
        "summary": True,
        "graphs": graphs,
        "violations": violations,
        "parse_errors": errors,
        "conjecture_counterexamples": counterexamples,
    }
    print(json.dumps(summary))
    if violations:
        return EXIT_VIOLATION
    return EXIT_USAGE if errors else EXIT_OK


def _cmd_gen(args) -> int:
    g = generate(args.family, *args.params)
    if args.format == "graph6":
        print(to_graph6(g))
    elif args.format == "edges":
        sys.stdout.write(to_edge_list(g))
    else:
        sys.stdout.write(to_dot(g))
    return EXIT_OK


def _cmd_expect(args) -> int:
    from .bounds import expected_size
    from .ratmath import fraction_json

    g = _load_graph(args)
    value = expected_size(g)
    if args.quiet:
        print(float(value))
    else:
        _emit(fraction_json(value))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zforce",
        description="Zero forcing toolkit: simulate, solve exactly, "
                    "construct, and verify bounds over graph6 streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="run the forcing process from a set")
    _add_source_args(p)
    p.add_argument("--set", required=True, help="comma-separated vertex indices")
    _add_quiet(p)
    p.set_defaults(func=_cmd_closure, parser=p)

    p = sub.add_parser("exact", help="exact zero forcing number with witness")
    _add_source_args(p)
    p.add_argument("--budget", type=int, default=None,
                   help="cap on closure invocations")
    _add_quiet(p)
    p.set_defaults(func=_cmd_exact, parser=p)

    p = sub.add_parser("heuristic", help="constructive zero forcing sets")
    _add_source_args(p)
    p.add_argument("--method", choices=["greedy", "subcubic", "random"],
                   default="greedy")
    p.add_argument("--trials", type=int, default=None,
                   help="random orders to draw (default 100); --method random only")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the random orders (default 0); --method random only")
    _add_quiet(p)
    p.set_defaults(func=_cmd_heuristic, parser=p)

    p = sub.add_parser("bounds", help="evaluate the full bound catalog")
    _add_source_args(p)
    p.add_argument("--budget", type=int, default=None,
                   help="solve Z exactly within this many closure invocations "
                        "and check the catalog against the interval")
    _add_quiet(p)
    p.set_defaults(func=_cmd_bounds, parser=p)

    p = sub.add_parser("verify", help="batch-check a graph6 stream")
    _add_source_args(p)
    p.add_argument("--exact-limit", type=int, default=12,
                   help="solve exactly up to this order (default 12)")
    p.set_defaults(func=_cmd_verify, parser=p)

    p = sub.add_parser("gen", help="emit a named family member")
    p.add_argument("family", choices=family_names())
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--format", choices=["graph6", "edges", "dot"],
                   default="graph6")
    p.set_defaults(func=_cmd_gen, parser=p)

    p = sub.add_parser("expect", help="exact expected random-order set size")
    _add_source_args(p)
    _add_quiet(p)
    p.set_defaults(func=_cmd_expect, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    try:
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:
        # Bad input or parameters, undecodable bytes and unknown arguments
        # included: report through the subcommand's parser, so the message
        # carries its usage.
        args.parser.error(str(exc))
    except BrokenPipeError:
        # The reader closed the pipe (`zforce ... | head`): stop quietly.
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
