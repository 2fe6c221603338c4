"""The benchmark's tracer (perfbench/tracing.py) against the package it patches.

The tracer replaces functions by name in the package's modules, so a module
that stops importing a patched name breaks every traced benchmark run.
These tests load the tracer by file path, install it and undo it.
"""

import gc
import importlib.util
from pathlib import Path

import fitchgraph
from fitchgraph import cli, enumeration, fitch, graphs, io, recognition, synthesis, tree

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
OWNERS = (fitchgraph, cli, enumeration, fitch, graphs, io, recognition, synthesis, tree,
          graphs.SimpleGraph)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_undo_restores_every_name(capsys):
    tracing = load_tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        patched = {
            (owner.__name__, name)
            for owner, old in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if old.get(name) is not value
        }
        assert {("fitchgraph.cli", "main"), ("fitchgraph.io", "parse_edgelist"),
                ("fitchgraph.enumeration", "enumerate_trees")} <= patched
        assert cli.main(["enumerate", "2"]) == 0
        assert {"cli.main", "enumeration.realizable_graphs",
                "enumeration.enumerate_trees"} <= set(tracer.names)
        assert tracer.counts["enumeration.labelings"] == 2
    finally:
        undo()
    capsys.readouterr()
    for owner, old in zip(OWNERS, before):
        now = dict(vars(owner))
        assert now.keys() == old.keys(), owner.__name__
        changed = [name for name in old if now[name] is not old[name]]
        assert changed == [], owner.__name__
    assert tracer.on_gc not in gc.callbacks
