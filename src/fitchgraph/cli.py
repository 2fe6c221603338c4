"""Command-line interface.

Exit codes: 0 = success / accept, 1 = clean reject (graph not multipartite,
tree does not explain, not least-resolved), 2 = usage or input error.
Results go to stdout, diagnostics to stderr.  A filename of ``-`` reads
stdin; input kind (tree vs. graph) is inferred from content.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from . import enumeration, io
from .fitch import directed_fitch, explains, undirected_fitch
from .graphs import SimpleGraph
from .recognition import ForbiddenWitness, Partition, recognize
from .synthesis import explain, is_least_resolved
from .tree import LabeledTree


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read().removeprefix("\ufeff")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().removeprefix("\ufeff")


def _load_tree(path: str) -> LabeledTree:
    text = _read(path)
    if io.looks_like_edgelist(text):
        raise io.ParseError("expected a tree (Newick), got an edge list")
    return io.parse_newick(text)


def _load_graph(path: str) -> SimpleGraph:
    text = _read(path)
    if not io.looks_like_edgelist(text):
        raise io.ParseError("expected a graph (edge list), got something else")
    return io.parse_edgelist(text)


def _format_partition(p: Partition) -> str:
    blocks = " ".join("{" + ",".join(sorted(b)) + "}" for b in p.blocks)
    return f"blocks: {blocks}"


def cmd_compute(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    if args.directed:
        sys.stdout.write(io.serialize_arclist(directed_fitch(tree)))
    else:
        sys.stdout.write(io.serialize_edgelist(undirected_fitch(tree)))
    return 0


def _answer(result: object, render: Callable[[object], str]) -> int:
    """Print a ForbiddenWitness *result* as its witness line and return 1,
    or print ``render(result)`` and return 0."""
    if isinstance(result, ForbiddenWitness):
        x, y = result.pair
        print(f"witness: {result.isolated} | {x}--{y}")
        return 1
    print(render(result))
    return 0


def cmd_recognize(args: argparse.Namespace) -> int:
    return _answer(recognize(_load_graph(args.graph)), _format_partition)


def cmd_explain(args: argparse.Namespace) -> int:
    mode = "minimal" if args.minimal else "canonical"
    return _answer(explain(_load_graph(args.graph), mode=mode), io.serialize_newick)


def cmd_verify(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    graph = _load_graph(args.graph)
    yes = explains(tree, graph)
    print(f"explains: {'yes' if yes else 'no'}")
    if not yes:
        return 1
    if args.least_resolved:
        least = is_least_resolved(tree, graph)
        print(f"least-resolved: {'yes' if least else 'no'}")
        if not least:
            return 1
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    report = enumeration.realizable_graphs(args.n)
    sys.stdout.write(enumeration.format_report(report, include_graphs=args.report))
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    text = _read(args.input)
    obj = io.parse_edgelist(text) if io.looks_like_edgelist(text) else io.parse_newick(text)
    sys.stdout.write(io.to_dot(obj))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fitchgraph",
        description="Fitch graphs of {0,1}-edge-labeled trees: compute, "
        "recognize, explain, verify, enumerate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Fitch graph of a Newick tree")
    p.add_argument("tree", help="Newick file ('-' for stdin)")
    p.add_argument("--directed", action="store_true", help="emit the arc list")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("recognize", help="partition or witness for a graph")
    p.add_argument("graph", help="edge-list file ('-' for stdin)")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("explain", help="explaining tree for a graph")
    p.add_argument("graph", help="edge-list file ('-' for stdin)")
    p.add_argument("--minimal", action="store_true", help="fewest-vertex tree")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("verify", help="does the tree explain the graph?")
    p.add_argument("tree", help="Newick file ('-' for stdin)")
    p.add_argument("graph", help="edge-list file ('-' for stdin)")
    p.add_argument(
        "--least-resolved",
        action="store_true",
        help="also check that no edge contraction preserves the graph",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="exhaustive census of n-leaf Fitch graphs")
    p.add_argument("n", type=int, help="leaf count (2..5)")
    p.add_argument("--report", action="store_true", help="list realizable graphs")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("dot", help="Graphviz rendering of a tree or graph")
    p.add_argument("input", help="Newick or edge-list file ('-' for stdin)")
    p.set_defaults(func=cmd_dot)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors exit with 2 already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
