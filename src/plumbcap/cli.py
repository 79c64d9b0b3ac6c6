"""Command line interface.

Subcommands mirror the pipeline stages: validate, gram, openbook, dual,
embed, wu, mubar, obstruct, gamma-n.  Graph files use the plain text
format (``v id framing`` and ``e id id`` lines); ``-`` reads stdin, so
stages compose by piping, for example::

    plumbcap gamma-n 7 | plumbcap obstruct -

Exit codes: 0 success, 1 only with --fail-on-inconclusive when the run
does not obstruct, 2 usage errors and unreadable files, 3 malformed or
invalid input (parse errors, failed validation, missing preconditions),
4 exhausted search budget.  JSON output is requested with --json: one
document on one line, keys sorted, deterministic once --no-timings
removes the wall-clock fields (``python3 -m json.tool`` indents it for
reading).  A search's ``nodes`` counts a forced zero tail, the zeros
that finish a row whose norm is used up, as part of the node that used
it up (see ``embedder``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import pipeline
from .dualcap import build_dual, build_open_book, choose_root
from .embedder import embed_diagonal
from .intlin import GramMatrix, check_mu_bar, gram_from_json, mu_bar, wu_classes
from .plumbing import (
    MAX_VERTICES,
    generate_gamma_n,
    gram_matrix,
    parse_plumbing,
    serialize_plumbing,
    tree_wu_class,
    validate,
)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(exc)


def _load_graph(path: str):
    return parse_plumbing(_read_text(path))


def _load_gram(args) -> GramMatrix:
    if args.gram:
        return gram_from_json(_read_text(args.file))
    return gram_matrix(_load_graph(args.file))


def _resolve_budget(args) -> int | None:
    if args.budget_nodes is not None and args.budget_nodes < 0:
        raise _UsageError("node budget must be nonnegative")
    return args.budget_nodes


def _render_gram(q: GramMatrix) -> str:
    lines = ["labels: %s" % " ".join(q.labels)]
    width = max((len(str(v)) for row in q.entries for v in row), default=1)
    for row in q.entries:
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines)


# Each handler prints nothing and returns (exit code, result): the JSON
# document under --json, the text otherwise, and only the one asked for.

def _cmd_validate(args) -> tuple[int, dict | str]:
    report = validate(_load_graph(args.file))
    code = EXIT_OK if report.all_ok else EXIT_INVALID
    return code, report.to_json_dict() if args.json else report.describe()


def _cmd_gram(args) -> tuple[int, dict | str]:
    q = gram_matrix(_load_graph(args.file))
    return EXIT_OK, q.to_json_dict() if args.json else _render_gram(q)


def _cmd_openbook(args) -> tuple[int, dict | str]:
    book = build_open_book(_load_graph(args.file))
    return EXIT_OK, book.to_json_dict() if args.json else "\n".join(
        ["hole %d: vertex %d" % hole for hole in enumerate(book.owners)]
        + ["boundary curve: hole %d" % h for h in range(len(book.owners))]
        + ["edge curve %d-%d: holes %s" % (*edge, " ".join(map(str, inside)))
           for edge, inside in book.edge_curves])


def _cmd_dual(args) -> tuple[int, dict | str]:
    graph = _load_graph(args.file)
    root = args.root if args.root is not None else choose_root(graph)
    dual = build_dual(graph, root)
    if args.json:
        return EXIT_OK, dual.gram.to_json_dict() if args.gram_only else dual.to_json_dict()
    lines = [] if args.gram_only else ["root: %d" % dual.root] + [
        "%(label)s: vertex %(vertex)d, distance %(distance)d, framing %(framing)d" % s
        for s in dual.to_json_dict()["strings"]]
    return EXIT_OK, "\n".join(lines + [_render_gram(dual.gram)])


def _cmd_embed(args) -> tuple[int, dict | str]:
    q = gram_from_json(_read_text(args.file))
    rank = args.rank if args.rank is not None else q.rank
    if rank < 0:
        raise _UsageError("target rank must be nonnegative")
    outcome = embed_diagonal(q, rank, _resolve_budget(args))
    code = EXIT_OK if outcome.completed else EXIT_BUDGET
    if args.json:
        return code, outcome.to_json_dict(include_timings=not args.no_timings)
    if not outcome.completed:
        return code, "undecided: budget exhausted after %d nodes" % outcome.nodes
    if outcome.embeddable:
        return code, "\n".join(
            ["embeddable into <-1>^%d (%d nodes)" % (rank, outcome.nodes)]
            + ["  " + " ".join(str(v) for v in row) for row in outcome.witness])
    if outcome.certificate == "rank":
        reason = ": the form has rank %d" % q.rank
    elif outcome.certificate == "determinant":
        reason = ": determinant %d is not a square" % outcome.determinant
    else:
        reason = " (%d nodes)" % outcome.nodes
    return code, "not embeddable into <-1>^%d%s" % (rank, reason)


def _cmd_wu(args) -> tuple[int, dict | str]:
    q = _load_gram(args)
    classes = wu_classes(q)
    if args.json:
        return EXIT_OK, {"labels": list(q.labels), "classes": [list(w) for w in classes]}
    return EXIT_OK, "\n".join(
        "wu class: %s" % (" ".join(label for label, bit in zip(q.labels, w) if bit)
                          or "(empty)")
        for w in classes)


def _cmd_mubar(args) -> tuple[int, dict | str]:
    graph = None if args.gram else _load_graph(args.file)
    if graph and (report := validate(graph)).is_tree:  # O(V + E), no V x V form
        check_mu_bar(report.determinant)
        value = tree_wu_class(graph)[1]
    else:
        value = mu_bar(gram_matrix(graph) if graph else _load_gram(args))
    return EXIT_OK, {"mu_bar": value} if args.json else "mu-bar: %d" % value


def _cmd_obstruct(args) -> tuple[int, dict | str]:
    graph = _load_graph(args.file)
    report = pipeline.qhd_obstruction(
        graph, root=args.root, all_roots=args.all_roots,
        budget=_resolve_budget(args))
    if report.verdict == pipeline.UNDECIDED:
        code = EXIT_BUDGET
    elif args.fail_on_inconclusive and report.verdict != pipeline.OBSTRUCTED:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    include_timings = not args.no_timings
    return code, (report.to_json_dict(include_timings) if args.json
                  else pipeline.render_report(report, include_timings))


def _cmd_gamma_n(args) -> tuple[int, dict | str]:
    if args.n < 2:
        raise _UsageError("gamma-n needs n >= 2")
    if args.n + 6 > MAX_VERTICES:
        # gamma-n has n + 6 vertices, more than every other subcommand takes.
        raise _UsageError("gamma-n needs n <= %d" % (MAX_VERTICES - 6))
    # Less the final newline, which cli_main prints.
    return EXIT_OK, serialize_plumbing(generate_gamma_n(args.n))[:-1]


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbcap",
        description="Rational homology disk obstructions for negative "
                    "definite plumbing trees.")
    commands = parser.add_subparsers(dest="command", required=True)

    # Options that several subcommands share, each declared once.
    graph, as_json, gram, search = (
        argparse.ArgumentParser(add_help=False) for _ in range(4))
    graph.add_argument("file", help="graph file, or - for stdin")
    as_json.add_argument("--json", action="store_true", help="emit JSON")
    gram.add_argument("--gram", action="store_true",
                      help="input is a gram JSON file instead of a graph")
    search.add_argument("--budget-nodes", type=int, default=None,
                        help="node budget of the one search (default: unlimited)")
    search.add_argument("--no-timings", action="store_true",
                        help="omit wall-clock fields from the output")

    def command(name, handler, help_text, *parents):
        sub = commands.add_parser(name, help=help_text, parents=parents)
        sub.set_defaults(handler=handler)
        return sub

    command("validate", _cmd_validate, "check tree, definiteness, framing bounds",
            graph, as_json)
    command("gram", _cmd_gram, "intersection form of the graph", graph, as_json)
    command("openbook", _cmd_openbook, "planar open book holes and twist curves",
            graph, as_json)

    sub = command("dual", _cmd_dual, "dual configuration strings and gram matrix",
                  graph, as_json)
    sub.add_argument("--root", type=int, default=None, help="root vertex id")
    sub.add_argument("--gram-only", action="store_true",
                     help="print only the dual gram matrix")

    sub = command("embed", _cmd_embed, "search an embedding into <-1>^r",
                  search, as_json)
    sub.add_argument("file", help="gram JSON file, or - for stdin")
    sub.add_argument("--rank", type=int, default=None,
                     help="target rank r (default: rank of the form)")

    command("wu", _cmd_wu, "mod 2 Wu classes of the intersection form",
            graph, gram, as_json)
    command("mubar", _cmd_mubar, "mu-bar invariant (odd determinant only)",
            graph, gram, as_json)

    sub = command("obstruct", _cmd_obstruct, "full rational homology disk obstruction",
                  graph, search, as_json)
    roots = sub.add_mutually_exclusive_group()
    roots.add_argument("--root", type=int, default=None, help="use this root only")
    roots.add_argument("--all-roots", action="store_true",
                       help="report every admissible root, each with the outcome "
                            "of the one search at the default root")
    sub.add_argument("--fail-on-inconclusive", action="store_true",
                     help="exit 1 unless the run obstructs")

    sub = command("gamma-n", _cmd_gamma_n, "emit the n-th built-in family graph")
    sub.add_argument("n", type=int, help="family index, 2 <= n <= %d" % (MAX_VERTICES - 6))
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, result = args.handler(args)
        # One line: json.dumps with an indent skips json's C encoder.
        print(result if isinstance(result, str)
              else json.dumps(result, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (`| head -1`).  Point stdout at devnull so
        # that the interpreter's final flush reports nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except _UsageError as exc:
        print("plumbcap: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # Every domain error (parse, validation, root, definiteness, spin)
        # is a ValueError, and so is an undecodable input file.
        print("plumbcap: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    return code


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
