"""The benchmark's workloads: one cycle of jobs each, built from a seed.

A job is one user-level request: one ``fitchgraph.cli.main(argv)`` call
on files written here, or one public library call.  A workload is a fixed
cycle of jobs.  The seed picks names, block sizes, tree shapes, labels,
edge order and job order, but not the size design, so runs with different
seeds do the same amount of work.  Every job carries its input sizes and
what the oracle expects of it.
"""

from __future__ import annotations

import random
from pathlib import Path

import gen

P_ONE = (0.02, 0.2, 0.6)


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"{workload}/{seed}")
    jobs = BY_NAME[workload](rng, workdir)
    rng.shuffle(jobs)
    return jobs


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path.relative_to(workdir.parent))


# Block counts given to graph sizes in descending order: every count 1..12
# once per twelve graphs, and two blocks for the largest graph.
BLOCK_COUNTS = (2, 7, 12, 4, 9, 1, 6, 11, 3, 8, 5, 10)
# (mode, share of 1-edges) given to trees in descending size order.  The
# largest tree gets 0.2, where the edge count barely depends on where the
# 1-edges fall; at 0.02 one edge near the root can double the output.
TREE_MODES = [("undirected", 0.2), ("directed", 0.02), ("undirected", 0.6),
              ("directed", 0.2), ("undirected", 0.02), ("directed", 0.6)]


def graph_accept(rng: random.Random, workdir: Path) -> list[dict]:
    """Three CLI jobs on each of 34 planted multipartite graphs, 50-400 vertices."""
    jobs = []
    for i, n in enumerate(gen.skewed_sizes(50, 400, 34, 4.5)):
        k = BLOCK_COUNTS[i % len(BLOCK_COUNTS)]
        blocks = gen.planted_blocks(rng, n, k, least=1)
        graph_text = gen.edgelist_text(rng, blocks)
        tree_text = gen.minimal_tree_newick(rng, blocks)
        graph = _write(workdir, f"g{i}.txt", graph_text)
        tree = _write(workdir, f"t{i}.nwk", tree_text)
        sizes = {"vertices": n, "edges": len(gen.cross_pairs(blocks)), "bytes": len(graph_text)}
        common = {"call": "cli", "code": 0, "sizes": sizes, "classes": k}
        jobs.append({**common, "kind": "recognize", "argv": ["recognize", graph],
                     "stdout": gen.digest(gen.blocks_line(blocks))})
        jobs.append({**common, "kind": "explain-minimal", "argv": ["explain", "--minimal", graph],
                     "blocks": blocks})
        jobs.append({**common, "kind": "verify-least-resolved",
                     "argv": ["verify", "--least-resolved", tree, graph],
                     "stdout": gen.digest("explains: yes\nleast-resolved: yes\n"),
                     "sizes": {**sizes, "leaves": n, "bytes": len(graph_text) + len(tree_text)}})
    return jobs


def graph_reject(rng: random.Random, workdir: Path) -> list[dict]:
    """build + recognize on 100 near-miss graphs, 200-1000 vertices, 2-6 blocks.

    Removed and added edges alternate; the seed picks which edge.
    """
    jobs = []
    for i, n in enumerate(gen.skewed_sizes(200, 1000, 100, 10.0)):
        k = 2 + i % 5
        graph = {"seed": rng.getrandbits(64), "n": n, "k": k, "removed": i % 2 == 0}
        near = gen.NearMiss(**graph)
        jobs.append({
            "call": "lib", "kind": "build+recognize-" + ("removed" if near.removed else "added"),
            "graph": graph, "sizes": {"vertices": n, "edges": near.edge_count},
            "classes": near.classes,
        })
    return jobs


def tree_compute(rng: random.Random, workdir: Path) -> list[dict]:
    """CLI compute on 50 random binary trees (100-1000 leaves) and 46
    caterpillars (50-250 leaves); CLI dot and a library Newick round trip
    on caterpillars with 2,000 and 10,000 leaves."""
    jobs = []
    trees = [("binary", n) for n in gen.skewed_sizes(100, 1000, 50, 7.0)]
    trees += [("caterpillar", n) for n in gen.skewed_sizes(50, 250, 46, 5.0)]
    for i, (shape, leaves) in enumerate(trees):
        mode, p_one = TREE_MODES[i % len(TREE_MODES)]
        make = gen.random_binary if shape == "binary" else gen.caterpillar
        tree = make(rng, leaves, p_one)
        text = tree.newick()
        path = _write(workdir, f"t{i}.nwk", text)
        expect = gen.directed_text(tree) if mode == "directed" else gen.undirected_text(tree)
        argv = ["compute", "--directed", path] if mode == "directed" else ["compute", path]
        jobs.append({
            "call": "cli", "kind": f"compute-{mode}-{shape}", "argv": argv, "code": 0,
            "stdout": gen.digest(expect),
            "sizes": {"leaves": leaves, "bytes": len(text), "edges": expect.count("\n") - 1},
        })
    for leaves in (2000, 10000):
        tree_seed = rng.getrandbits(64)
        tree = gen.caterpillar(random.Random(tree_seed), leaves, 0.2)
        text = tree.newick()
        path = _write(workdir, f"deep{leaves}.nwk", text)
        sizes = {"leaves": leaves, "bytes": len(text)}
        # Newick I/O recurses once per level at the seed (DESIGN.md).
        known = {"known_defect": "RecursionError"}
        jobs.append({"call": "cli", "kind": "dot-deep", "argv": ["dot", path], "code": 0, **known,
                     "tree": {"seed": tree_seed, "leaves": leaves, "p_one": 0.2}, "sizes": sizes})
        jobs.append({"call": "lib", "kind": "roundtrip-deep", "file": path, **known,
                     "text": gen.digest(gen.canonical_newick(tree)), "sizes": sizes})
    return jobs


def census(rng: random.Random, workdir: Path) -> list[dict]:
    """One pass of the paper's small-scale verification, 361 small jobs."""
    jobs = []
    for n in range(2, 6):
        report = gen.census_report(n)
        jobs.append({"call": "cli", "kind": "enumerate-report", "argv": ["enumerate", str(n), "--report"],
                     "code": 0, "stdout": gen.digest(report), "sizes": {"leaves": n}})
        jobs.append({"call": "lib", "kind": "verify-characterization", "n": n, "sizes": {"leaves": n}})
    for n in range(1, 7):
        names = gen.make_names(rng, n)
        for blocks in gen.set_partitions(names):
            sizes = {"vertices": n, "edges": len(gen.cross_pairs(blocks))}
            common = {"call": "lib", "names": names, "blocks": blocks, "sizes": sizes,
                      "classes": len(blocks)}
            if n <= 5:
                jobs.append({**common, "kind": "minimum-tree-size",
                             "size": gen.min_tree_size([len(b) for b in blocks])})
            jobs.append({**common, "kind": "least-resolved-minimal"})
    return jobs


BY_NAME = {
    "graph-accept": graph_accept,
    "graph-reject": graph_reject,
    "tree-compute": tree_compute,
    "census": census,
}
