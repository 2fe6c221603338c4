"""Spans around fitchgraph's entry points, installed from outside the package.

Wrappers replace the functions where callers reach them (the names that
``cli``, ``synthesis`` and ``enumeration`` import, ``io.validate``,
``synthesis.contract_edge`` and the first access of
``SimpleGraph.adjacency``).  Garbage-collector pauses come from
``gc.callbacks``.  Each span keeps its name, start, end, parent span and
job id in memory; :meth:`Tracer.metrics` reduces them when the run ends.

Only ``time.perf_counter`` and ``gc.callbacks`` are used, so a function
that no wrapper surrounds (``LabeledTree.build``, say) is charged to the
self time of the wrapped function that called it.
"""

from __future__ import annotations

import gc
from array import array
from collections import Counter
from functools import cached_property, wraps
from time import perf_counter

# The layers: the package's modules, the interpreter's collector (py) and
# the benchmark's own share of each job (bench).
MODULES = ("cli", "io", "graphs", "tree", "fitch", "recognition", "synthesis",
           "enumeration", "py", "bench")

ACCEPT, REJECT = 1, 2


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per closed span
        self.span_id = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.tag = array("b")
        self._next = 0
        self._open: list[int] = [-1]
        self.job_id = -1
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self._gc_start = 0.0

    def _record(self, idx: int, name: str, t0: float, t1: float, parent: int, tag: int = 0) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(idx)
        self.name_id.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.job.append(self.job_id)
        self.tag.append(tag)

    def wrap(self, name: str, fn, after=None):
        """*fn* inside a span; ``after(tracer, args, result)`` may count or
        return a tag, and runs outside the span."""

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._next
            self._next += 1
            parent = self._open[-1]
            self._open.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                t1 = perf_counter()
                self._open.pop()
                self._record(idx, name, t0, t1, parent)
                if name.startswith("io."):
                    self.errors[type(exc).__name__] += 1
                raise
            t1 = perf_counter()
            self._open.pop()
            tag = after(self, args, result) if after else 0
            self._record(idx, name, t0, t1, parent, tag or 0)
            return result

        return traced

    def run_job(self, job_id: int, run):
        """Run one job inside its root span ``bench.job``."""
        self.job_id = job_id
        return self.wrap("bench.job", run)()

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        t1 = perf_counter()
        idx = self._next
        self._next += 1
        self._record(idx, "py.gc", self._gc_start, t1, self._open[-1])
        self.counts["py.gc_collections"] += 1

    # -- reduction ---------------------------------------------------------

    def metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics, each a mean per job, plus module shares."""
        child = [0.0] * self._next
        dur = [e - s for s, e in zip(self.start, self.end)]
        for p, d in zip(self.parent, dur):
            if p >= 0:
                child[p] += d
        inclusive: Counter[str] = Counter()
        self_by_module: Counter[str] = Counter()
        tagged: Counter[tuple[str, int]] = Counter()
        for idx, nid, d, tag in zip(self.span_id, self.name_id, dur, self.tag):
            name = self.names[nid]
            own = d - child[idx]
            inclusive[name] += d
            self_by_module[name.split(".", 1)[0]] += own
            if tag:
                tagged[name, tag] += own
        total = inclusive["bench.job"]
        out: dict[str, float] = {}
        for metric, span in SPAN_METRICS.items():
            out[metric] = inclusive[span] / jobs
        out["recognition.accept_s"] = tagged["recognition.recognize", ACCEPT] / jobs
        out["recognition.reject_s"] = tagged["recognition.recognize", REJECT] / jobs
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric] / jobs
        out["io.errors"] = sum(self.errors.values()) / jobs
        for module in MODULES:
            out[f"{module}.self_s"] = self_by_module[module] / jobs
            out[f"{module}.share"] = self_by_module[module] / total if total else 0.0
        return out


# metric -> span whose inclusive time it reports
SPAN_METRICS = {
    "cli.main_s": "cli.main",
    "io.parse_edgelist_s": "io.parse_edgelist",
    "io.parse_newick_s": "io.parse_newick",
    "tree.validate_s": "tree.validate",
    "io.serialize_edgelist_s": "io.serialize_edgelist",
    "io.serialize_arclist_s": "io.serialize_arclist",
    "io.serialize_newick_s": "io.serialize_newick",
    "io.to_dot_s": "io.to_dot",
    "graphs.build_s": "graphs.build",
    "graphs.adjacency_s": "graphs.adjacency",
    "fitch.undirected_s": "fitch.undirected",
    "fitch.directed_s": "fitch.directed",
    "synthesis.canonical_tree_s": "synthesis.canonical_tree",
    "synthesis.minimal_tree_s": "synthesis.minimal_tree",
    "synthesis.explain_s": "synthesis.explain",
    "synthesis.is_least_resolved_s": "synthesis.is_least_resolved",
    "tree.contract_edge_s": "tree.contract_edge",
    "enumeration.realizable_graphs_s": "enumeration.realizable_graphs",
    "enumeration.verify_characterization_s": "enumeration.verify_characterization",
    "enumeration.minimum_tree_size_s": "enumeration.minimum_tree_size",
    "py.gc_s": "py.gc",
}

COUNT_METRICS = (
    "io.parse_edgelist_bytes", "io.parse_newick_bytes", "io.bytes_out",
    "graphs.vertices", "graphs.edges",
    "recognition.accepts", "recognition.rejects",
    "fitch.calls", "fitch.leaf_pairs", "fitch.edges_out", "fitch.arcs_out",
    "tree.contract_edge_calls", "enumeration.topologies", "enumeration.labelings",
    "py.gc_collections",
)


# -- counters run after a span closes -------------------------------------------


def _text_in(key):
    def after(t: Tracer, args, result):
        t.counts[key] += len(args[0])
    return after


def _text_out(t: Tracer, args, result):
    t.counts["io.bytes_out"] += len(result)


def _graph_size(t: Tracer, args, result):
    t.counts["graphs.vertices"] += len(result.vertices)
    t.counts["graphs.edges"] += len(result.edges)


def _parsed_graph(t: Tracer, args, result):
    t.counts["io.parse_edgelist_bytes"] += len(args[0])
    _graph_size(t, args, result)


def _recognized(t: Tracer, args, result):
    if hasattr(result, "blocks"):
        t.counts["recognition.accepts"] += 1
        return ACCEPT
    t.counts["recognition.rejects"] += 1
    return REJECT


def _fitch(pairs_per_leaf_pair: int, out_key: str, field: str):
    def after(t: Tracer, args, result):
        leaves = len(args[0].leaf_names)
        t.counts["fitch.calls"] += 1
        t.counts["fitch.leaf_pairs"] += pairs_per_leaf_pair * leaves * (leaves - 1) // 2
        t.counts[out_key] += len(getattr(result, field))
    return after


def _contracted(t: Tracer, args, result):
    t.counts["tree.contract_edge_calls"] += 1


def _topologies(t: Tracer, args, result):
    t.counts["enumeration.topologies"] += len(result)


def install(tracer: Tracer):
    """Install every wrapper and the gc callback; returns a function that undoes it."""
    import fitchgraph as fg
    from fitchgraph import cli, enumeration, fitch, graphs, io, recognition, synthesis, tree

    w = tracer.wrap
    recognize = w("recognition.recognize", recognition.recognize, _recognized)
    undirected = w("fitch.undirected", fitch.undirected_fitch, _fitch(1, "fitch.edges_out", "edges"))
    directed = w("fitch.directed", fitch.directed_fitch, _fitch(2, "fitch.arcs_out", "arcs"))
    explain = w("synthesis.explain", synthesis.explain)
    least = w("synthesis.is_least_resolved", synthesis.is_least_resolved)
    minimal = w("synthesis.minimal_tree", synthesis.minimal_tree)
    canonical = w("synthesis.canonical_tree", synthesis.canonical_tree)
    parse_newick = w("io.parse_newick", io.parse_newick, _text_in("io.parse_newick_bytes"))
    parse_edgelist = w("io.parse_edgelist", io.parse_edgelist, _parsed_graph)
    serialize_newick = w("io.serialize_newick", io.serialize_newick, _text_out)
    realizable = w("enumeration.realizable_graphs", enumeration.realizable_graphs)
    characterize = w("enumeration.verify_characterization", enumeration.verify_characterization)
    min_size = w("enumeration.minimum_tree_size", enumeration.minimum_tree_size)
    build = w("graphs.build", graphs.SimpleGraph.build, _graph_size)
    adjacency = cached_property(
        w("graphs.adjacency", vars(graphs.SimpleGraph)["adjacency"].func))
    adjacency.__set_name__(graphs.SimpleGraph, "adjacency")
    edge_labelings = enumeration.edge_labelings

    def counted_labelings(t):
        for labeled in edge_labelings(t):
            tracer.counts["enumeration.labelings"] += 1
            yield labeled

    patches = [
        (cli, "main", w("cli.main", cli.main)),
        (cli, "undirected_fitch", undirected),
        (cli, "directed_fitch", directed),
        (cli, "recognize", recognize),
        (cli, "explain", explain),
        (cli, "is_least_resolved", least),
        (io, "parse_newick", parse_newick),
        (io, "parse_edgelist", parse_edgelist),
        (io, "serialize_newick", serialize_newick),
        (io, "serialize_edgelist", w("io.serialize_edgelist", io.serialize_edgelist, _text_out)),
        (io, "serialize_arclist", w("io.serialize_arclist", io.serialize_arclist, _text_out)),
        (io, "to_dot", w("io.to_dot", io.to_dot, _text_out)),
        (io, "validate", w("tree.validate", tree.validate)),
        (synthesis, "undirected_fitch", undirected),
        (synthesis, "recognize", recognize),
        (synthesis, "contract_edge", w("tree.contract_edge", tree.contract_edge, _contracted)),
        (synthesis, "canonical_tree", canonical),
        (synthesis, "minimal_tree", minimal),
        (enumeration, "undirected_fitch", undirected),
        (enumeration, "recognize", recognize),
        (enumeration, "realizable_graphs", realizable),
        (enumeration, "format_report", w("enumeration.format_report", enumeration.format_report)),
        (enumeration, "enumerate_trees", w("enumeration.enumerate_trees", enumeration.enumerate_trees,
                                           _topologies)),
        (enumeration, "edge_labelings", counted_labelings),
        (fg, "recognize", recognize),
        (fg, "explain", explain),
        (fg, "is_least_resolved", least),
        (fg, "minimal_tree", minimal),
        (fg, "canonical_tree", canonical),
        (fg, "parse_newick", parse_newick),
        (fg, "parse_edgelist", parse_edgelist),
        (fg, "serialize_newick", serialize_newick),
        (fg, "verify_characterization", characterize),
        (fg, "minimum_tree_size", min_size),
        (fg, "realizable_graphs", realizable),
        (graphs.SimpleGraph, "build", staticmethod(build)),
        (graphs.SimpleGraph, "adjacency", adjacency),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    for owner, attr, new in patches:
        setattr(owner, attr, new)
    gc.callbacks.append(tracer.on_gc)

    def undo() -> None:
        gc.callbacks.remove(tracer.on_gc)
        for owner, attr, old in saved:
            setattr(owner, attr, old)

    return undo
