"""Run one workload's jobs in a closed loop and write the measurements.

Usage: python3 perfbench/worker.py JOBS.json SECONDS TRACE OUT.json

One client: each job starts when the previous one ends.  The loop runs
whole cycles of the job list until the jobs' own wall time reaches
SECONDS.  Input preparation and the oracle run outside each job's timer.
The end-to-end figures cover every attempt, and are scaled by the host
speed that a reference probe measured in the same run (DESIGN.md says
why).  With TRACE = 1, untraced and traced cycles alternate and the output
holds the per-layer metrics instead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import gen
import tracing
from probe import probe, speed

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.05


class Job:
    def __init__(self, index: int, spec: dict, run, check):
        self.index = index
        self.spec = spec
        self.run = run
        self.check = check


def cli_run(cli, argv: list[str]):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()
    return run


def prepare(index: int, spec: dict, fg, cli) -> Job:
    """The job's call and its oracle; everything here runs before timing."""
    kind = spec["kind"]
    if spec["call"] == "cli":
        run = cli_run(cli, spec["argv"])
        code = spec["code"]
        if "stdout" in spec:
            def check(res, want=spec["stdout"]):
                return res[0] == code and gen.digest(res[1]) == want
        elif kind == "explain-minimal":
            def check(res, blocks=spec["blocks"]):
                return res[0] == code and gen.explains_minimally(res[1].strip(), blocks)
        elif kind == "dot-deep":
            t = spec["tree"]
            tree = gen.caterpillar(random.Random(t["seed"]), t["leaves"], t["p_one"])

            def check(res):
                return res[0] == code and gen.dot_matches_tree(res[1], tree)
        else:
            raise ValueError(f"no oracle for {kind}")
        return Job(index, spec, run, check)
    if kind.startswith("build+recognize"):
        g = spec["graph"]
        near = gen.NearMiss(**g)
        names = near.names
        flat = [v for pair in near.pairs() for v in pair]

        def run():
            it = iter(flat)
            return fg.recognize(fg.SimpleGraph.build(names, zip(it, it)))

        def check(res):
            return isinstance(res, fg.ForbiddenWitness) and near.witness_ok(res.isolated, res.pair)
        return Job(index, spec, run, check)
    if kind == "roundtrip-deep":
        text = (ROOT / spec["file"]).read_text(encoding="utf-8")

        def run():
            return fg.serialize_newick(fg.parse_newick(text))
        return Job(index, spec, run, lambda res, want=spec["text"]: gen.digest(res) == want)
    if kind == "verify-characterization":
        n = spec["n"]
        return Job(index, spec, lambda: fg.verify_characterization(n), lambda res: res is None)
    names, blocks = spec["names"], spec["blocks"]
    pairs = gen.cross_pairs(blocks)
    if kind == "minimum-tree-size":
        def run():
            return fg.minimum_tree_size(fg.SimpleGraph.build(names, pairs))
        return Job(index, spec, run, lambda res, want=spec["size"]: res == want)
    if kind == "least-resolved-minimal":
        def run():
            p = fg.Partition.canonical(blocks)
            return fg.is_least_resolved(fg.minimal_tree(p), fg.SimpleGraph.build(names, pairs))
        return Job(index, spec, run, lambda res: res is True)
    raise ValueError(f"unknown job kind {kind}")


class Log:
    """Every attempt in the timed cycles: its job and its wall time."""

    def __init__(self) -> None:
        self.busy = 0.0
        self.index: list[int] = []
        self.times: list[float] = []
        self.failed = 0
        self.wrong = 0
        # exceptions other than a job's known defect
        self.unexpected = 0
        self.failures: Counter[str] = Counter()
        self.probes: list[float] = []
        self._last_probe = 0.0

    def rate(self) -> float:
        """Completed attempts per second of the attempts' summed wall time."""
        return (len(self.times) - self.failed) / self.busy

    def extend(self, other: "Log") -> None:
        self.index += other.index
        self.times += other.times
        self.failed += other.failed
        self.wrong += other.wrong
        self.unexpected += other.unexpected
        self.failures += other.failures

    def run_cycle(self, jobs: list[Job], deadline: float, tracer=None) -> bool:
        """One pass over *jobs*; False if the wall deadline cut it short."""
        for job in jobs:
            error = None
            t0 = perf_counter()
            try:
                result = tracer.run_job(job.index, job.run) if tracer else job.run()
            except Exception as exc:  # the job failed; the loop goes on
                error = type(exc).__name__
                if error != job.spec.get("known_defect"):
                    self.unexpected += 1
            elapsed = perf_counter() - t0
            if error is None:
                try:
                    ok = bool(job.check(result))
                except Exception as exc:  # an unreadable output is a wrong one
                    ok = False
                    error = "unreadable output: " + type(exc).__name__
                if not ok:
                    self.wrong += 1
                    error = error or "rejected by oracle"
                result = None
            self.busy += elapsed
            self.index.append(job.index)
            self.times.append(elapsed)
            if error:
                self.failed += 1
                self.failures[f"{job.spec['kind']}: {error}"] += 1
            if perf_counter() - self._last_probe >= PROBE_EVERY_S:
                self.probes.append(probe())
                self._last_probe = perf_counter()
            if perf_counter() > deadline:
                return False
        return True


def kind_table(log: Log, specs: list[dict]) -> list[dict]:
    """Attempts, p50 and p90 per job kind, with the input sizes covered."""
    by_kind: dict[str, list[int]] = {}
    for n, i in enumerate(log.index):
        by_kind.setdefault(specs[i]["kind"], []).append(n)
    rows = []
    for kind, attempts in sorted(by_kind.items()):
        lat = [log.times[n] for n in attempts]
        sizes = [specs[log.index[n]]["sizes"] for n in attempts]
        ranges = {key: [min(s[key] for s in sizes), max(s[key] for s in sizes)]
                  for key in sorted(sizes[0])}
        rows.append({"kind": kind, "attempts": len(lat), "p50_ms": 1e3 * statistics.median(lat),
                     "p90_ms": 1e3 * percentile(lat, 90) if len(lat) > 1 else 1e3 * lat[0],
                     "sizes": ranges})
    return rows


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv: list[str]) -> int:
    jobs_file, seconds, trace, out_file = argv[1], float(argv[2]), argv[3] == "1", argv[4]
    sys.path.insert(0, str(ROOT / "src"))
    import fitchgraph as fg
    from fitchgraph import cli

    specs = json.loads(Path(jobs_file).read_text(encoding="utf-8"))
    jobs = [prepare(i, spec, fg, cli) for i, spec in enumerate(specs)]
    gc.collect()
    gc.freeze()  # inputs and oracles stay out of the collector's work

    start = perf_counter()
    deadline = start + 3 * seconds
    log = Log()
    result: dict = {}
    if not trace:
        while log.run_cycle(jobs, deadline) and log.busy < seconds:
            pass
        p90 = percentile(log.times, 90)
        raw = {"jobs_per_s": log.rate(), "job_p50_ms": 1e3 * statistics.median(log.times),
               "job_p90_ms": 1e3 * p90}
        host = speed(log.probes)
        result["raw"] = raw
        result["e2e"] = {
            "jobs_per_s": raw["jobs_per_s"] / host,
            "job_p50_ms": raw["job_p50_ms"] * host,
            "job_p90_ms": raw["job_p90_ms"] * host,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_frac": log.failed / len(log.index),
        }
        result["probe"] = {"count": len(log.probes), "speed": host}
        result["slowest_decile"] = Counter(
            specs[i]["kind"] for i, t in zip(log.index, log.times) if t >= p90)
    else:
        # Untraced and traced cycles alternate so drift hits both alike.
        tracer = tracing.Tracer()
        traced = Log()
        while True:
            full = log.run_cycle(jobs, deadline)
            undo = tracing.install(tracer)
            try:
                full = traced.run_cycle(jobs, deadline, tracer) and full
            finally:
                undo()
            if not full or log.busy >= seconds / 2:
                break
        done = len(traced.index)
        per_layer = tracer.metrics(done)
        per_layer["recognition.classes"] = sum(
            specs[i].get("classes", 0) for i in traced.index) / done
        per_layer["trace.untraced_jobs_per_s"] = log.rate()
        per_layer["trace.jobs_per_s"] = traced.rate()
        per_layer["trace.overhead"] = log.rate() / traced.rate() - 1
        result["per_layer"] = per_layer
        result["io_errors"] = dict(tracer.errors)
        log.extend(traced)
    result.update(
        attempted=len(log.index), failed=log.failed, wrong=log.wrong,
        unexpected=log.unexpected,
        failures=dict(log.failures), kinds=kind_table(log, specs), cycle_jobs=len(jobs),
        wall_s=perf_counter() - start,
    )
    Path(out_file).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
