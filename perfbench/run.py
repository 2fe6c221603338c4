"""fitchgraph benchmark: one seeded workload, one fresh worker, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs are generated from the seed by
this directory's own code (which never imports fitchgraph) and written to
.perfbench_work/.  The set-up time is measured on fresh interpreters; the
jobs run in one fresh single-threaded worker process.  Timings are scaled
by the host speed a reference probe finds in the same run (probe.py), and
the unscaled figures are printed beside them.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
See DESIGN.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads
from probe import probe, speed

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
PROBES_PER_SETUP = 5
# A fresh interpreter imports the package and finishes one trivial CLI call.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import fitchgraph.cli as c; "
    "sys.exit(c.main(['enumerate', '2']))"
)
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
         "peak_rss_mb": "MB", "fail_frac": "frac"}


def setup_seconds() -> tuple[float, float]:
    """Median wall time of fresh set-ups after one untimed warm-up: unscaled,
    and with each set-up scaled by the host speed probed just before it."""
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        host = speed([probe() for _ in range(PROBES_PER_SETUP)])
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would round every set-up time up to the next step.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up call exited with {code}")
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * host)
    return statistics.median(raw), statistics.median(scaled)


def layer_unit(name: str) -> str:
    if name.endswith("_s") and not name.startswith("trace."):
        return "s/job"
    if name.endswith(".share") or name == "trace.overhead":
        return "frac"
    if name.startswith("trace."):
        return "1/s"
    if name.endswith("bytes") or name == "io.bytes_out":
        return "B/job"
    return "1/job"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fitchgraph" / "__init__.py").is_file():
        print(f"error: no fitchgraph package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        t0 = perf_counter()
        specs = workloads.build(args.workload, args.seed, WORKDIR)
        jobs_file = WORKDIR / "jobs.json"
        jobs_file.write_text(json.dumps(specs), encoding="utf-8")
        gen_s = perf_counter() - t0
        setup_raw, setup_scaled = setup_seconds()
        out_file = WORKDIR / "result.json"
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(jobs_file),
             str(args.seconds), str(args.trace), str(out_file)],
            cwd=ROOT, check=True, timeout=150,
        )
        res = json.loads(out_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  cycle {res['cycle_jobs']} jobs  "
          f"inputs {gen_s:.2f} s  worker wall {res['wall_s']:.1f} s")
    for row in res["kinds"]:
        sizes = " ".join(f"{k} {lo}-{hi}" for k, (lo, hi) in row["sizes"].items())
        print(f"  {row['kind']:<34} n={row['attempts']:<6} p50 {row['p50_ms']:9.3f} ms  "
              f"p90 {row['p90_ms']:9.3f} ms  [{sizes}]")
    for what, count in sorted(res["failures"].items()):
        print(f"  failed: {what} x{count}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["per_layer"].items()}
        for key, value in sorted(res["io_errors"].items()):
            print(f"  io.errors[{key}] = {value}")
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    else:
        e2e = {"setup_s": setup_scaled, **res["e2e"]}
        raw = {"setup_s": setup_raw, **res["raw"]}
        print(f"  host speed {res['probe']['speed']:.4f} over {res['probe']['count']} probes; "
              "unscaled: "
              + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        print("  slowest decile: " + ", ".join(
            f"{kind} x{n}" for kind, n in sorted(res["slowest_decile"].items())))
        print(f"  {res['attempted']} attempts: "
              + "  ".join(f"{k} {v:.6g} {UNITS[k]}" for k, v in e2e.items()))
        # fail_frac is 0 on three workloads, and a share of 0 cannot bound a
        # change; the result line carries it as failed / attempted.
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items() if k != "fail_frac"}
    # A wrong output, or an exception other than a job's known defect, is
    # an incorrect run; the known defect counts only in `failed`.
    correct = res["wrong"] == 0 and res["unexpected"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
