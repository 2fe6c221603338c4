"""Code size and cold-start cost of the fitchgraph package.

Prints the package's non-blank line count, its count of lines holding
code outside docstrings and comments (by tokenize), module by module and
in total, and its cold-start cost: the best of 5 fresh imports of the
CLI less the best of 5 bare interpreters, both without site.  The
numbers are information only; nothing here gates.

Usage, from any directory:

    python tools/code_size.py
"""

from __future__ import annotations

import subprocess
import sys
import time
import tokenize as tk
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = (tk.NEWLINE, tk.INDENT, tk.DEDENT, tk.ENDMARKER)


def non_blank_lines(path: Path) -> int:
    """Lines, split at LF, holding more than ASCII whitespace."""
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip(b" \t\n\r\v\f"))


def code_lines(path: Path) -> int:
    """Lines spanned by a token that is not a comment, a docstring or layout."""
    with open(path) as fh:
        toks = list(tk.generate_tokens(fh.readline))
    lines, prev = set(), tk.NEWLINE
    for i, t in enumerate(toks):
        if t.type in (tk.COMMENT, tk.NL):
            continue
        doc = t.type == tk.STRING and prev in (tk.NEWLINE, tk.INDENT, tk.DEDENT) and toks[i + 1].type == tk.NEWLINE
        if t.type not in SKIPPED and not doc:
            lines.update(range(t.start[0], t.end[0] + 1))
        prev = t.type
    return len(lines)


def best_run(code: str) -> float:
    """The fastest of 5 runs of ``python -S -c code`` from the repository root."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    paths = sorted((ROOT / "src").rglob("*.py"))
    print(f"src/ non-blank lines: {sum(map(non_blank_lines, paths))}")
    total = 0
    for path in paths:
        count = code_lines(path)
        print(f"  {path.relative_to(ROOT).as_posix()}: {count}")
        total += count
    print(f"src/ code lines outside docstrings and comments: {total}")
    cost = best_run("import sys; sys.path.insert(0, 'src'); import fitchgraph.cli") - best_run("pass")
    print(f"cold start of import fitchgraph.cli over python -S: {cost * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
