"""Tests for the fitchgraph command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fitchgraph.cli import main
from fitchgraph.graphs import complete_multipartite
from fitchgraph.io import parse_newick, serialize_edgelist

FIG1_NEWICK = "((a:0,b:0,c:0):1,(d:0,e:0):1,f:1,g:1)r;"
K3211 = complete_multipartite([{"a", "b", "c"}, {"d", "e"}, {"f"}, {"g"}])
K221_TEXT = serialize_edgelist(complete_multipartite([{"a", "b"}, {"c", "d"}, {"e"}]))


@pytest.fixture
def run(capsys):
    """Call ``main(argv)``; *stdin*, a str (written as UTF-8) or bytes, is
    fed as the bytes under a text layer like the interpreter's own stdin
    in the POSIX locale (UTF-8 with surrogateescape, no newline
    translation)."""

    def invoke(*argv, stdin=None):
        if stdin is not None:
            data = stdin.encode() if isinstance(stdin, str) else stdin
            old = sys.stdin
            sys.stdin = io.TextIOWrapper(
                io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n"
            )
            try:
                code = main(list(argv))
            finally:
                sys.stdin = old
        else:
            code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.nwk"
    path.write_text(FIG1_NEWICK)
    return str(path)


@pytest.fixture
def k221_file(tmp_path):
    path = tmp_path / "k221.graph"
    path.write_text(K221_TEXT)
    return str(path)


class TestCompute:
    def test_fig1(self, run, fig1_file):
        code, out, err = run("compute", fig1_file)
        assert code == 0
        assert out == serialize_edgelist(K3211)

    def test_all_zero_star(self, run, tmp_path):
        path = tmp_path / "star.nwk"
        path.write_text("(a:0,b:0,c:0)r;")
        code, out, _ = run("compute", str(path))
        assert code == 0
        assert out == "vertices: a b c\n"

    def test_malformed(self, run, tmp_path):
        path = tmp_path / "bad.nwk"
        path.write_text("((a:0,b)!;")
        code, out, err = run("compute", str(path))
        assert code == 2
        assert "error:" in err
        assert out == ""

    def test_directed(self, run, tmp_path):
        path = tmp_path / "pair.nwk"
        path.write_text("(a:1,b:0)r;")
        code, out, _ = run("compute", str(path), "--directed")
        assert code == 0
        assert out == "vertices: a b\nb a\n"

    def test_graph_input_rejected(self, run, k221_file):
        code, _, err = run("compute", k221_file)
        assert code == 2
        assert "expected a tree" in err

    def test_stdin(self, run):
        code, out, _ = run("compute", "-", stdin="(a:1,b:1)r;")
        assert code == 0
        assert out == "vertices: a b\na b\n"

    def test_deterministic(self, run, fig1_file):
        outputs = {run("compute", fig1_file)[1] for _ in range(3)}
        assert len(outputs) == 1


class TestRecognize:
    def test_k221(self, run, k221_file):
        code, out, _ = run("recognize", k221_file)
        assert code == 0
        assert out == "blocks: {a,b} {c,d} {e}\n"

    def test_k1_plus_k2(self, run, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("vertices: a b c\nb c\n")
        code, out, _ = run("recognize", str(path))
        assert code == 1
        assert out == "witness: a | b--c\n"

    def test_cr_only_stdin(self, run):
        # Nothing translates a lone CR on the way in, so the format sniff must.
        code, out, _ = run("recognize", "-", stdin="# c\rvertices: a b\ra b\r")
        assert (code, out) == (0, "blocks: {a} {b}\n")

    def test_tree_input_rejected(self, run, fig1_file):
        code, out, err = run("recognize", fig1_file)
        assert (code, out) == (2, "")
        assert err == "error: expected a graph (edge list), got something else\n"

    def test_empty_graph(self, run, tmp_path):
        path = tmp_path / "empty.graph"
        path.write_text("vertices:\n")
        code, _, err = run("recognize", str(path))
        assert code == 2
        assert "empty graph" in err

    def test_empty_file(self, run, tmp_path):
        path = tmp_path / "none.graph"
        path.write_text("")
        code, _, err = run("recognize", str(path))
        assert code == 2


class TestByteOrderMark:
    # A leading U+FEFF, as some editors save UTF-8, is not part of the text.
    GRAPH, TREE = "vertices: a b\na b\n", "((a:0,b:1):1,c:0)r;"

    def test_graph_file(self, run, tmp_path):
        path = tmp_path / "bom.graph"
        path.write_text(self.GRAPH, encoding="utf-8-sig")
        assert run("recognize", str(path)) == (0, "blocks: {a} {b}\n", "")

    def test_graph_stdin(self, run):
        assert run("recognize", "-", stdin="\ufeff" + self.GRAPH) == (0, "blocks: {a} {b}\n", "")

    def test_tree_file(self, run, tmp_path):
        path = tmp_path / "bom.nwk"
        path.write_text(self.TREE, encoding="utf-8-sig")
        assert run("compute", str(path)) == (0, "vertices: a b c\na b\na c\nb c\n", "")

    def test_tree_stdin(self, run):
        code, out, _ = run("compute", "-", stdin="\ufeff" + self.TREE)
        assert (code, out) == (0, "vertices: a b c\na b\na c\nb c\n")


# The same bytes as a tree and as a graph, with the exit code each gives:
# invalid UTF-8, one leading byte-order mark, CR-only and CRLF line ends
# (with a fault whose offset or line counts each as one character), and
# U+3000 between tokens.
PARITY_CASES = {
    "invalid-utf8": ((b"(a:0,b\xff:1)r;\n", 2), (b"vertices: a b\xff\na b\xff\n", 2)),
    "bom": ((b"\xef\xbb\xbf((a:0,b:1):1,c:0)r;\n", 0), (b"\xef\xbb\xbfvertices: a b\na b\n", 0)),
    "cr": ((b"((a:0,b:0):1,\r(c:0,d:1):0)r;\r", 0), (b"# c\rvertices: a b c\ra b\rb c\r", 0)),
    "cr-fault": ((b"(a:1)\r\ra;", 2), (b"vertices: a b\r\ra b\rb a\r", 2)),
    "crlf": (
        (b"( (a:0,\tb:0):1,\r\n(c:0 ,d:1):0\t)r;\r\n", 0),
        (b"# c\r\nvertices: a b c\r\na b\r\nb c\r\n", 0),
    ),
    "crlf-fault": ((b"(a:0,\r\n\xe3\x80\x80b:2);\n", 2), (b"vertices: a b\r\na b\r\nb a\r\n", 2)),
    "u3000": (
        (b"(a:0,\xe3\x80\x80b:1)\xe3\x80\x80r;", 0),
        (b"vertices:\xe3\x80\x80a b\na\xe3\x80\x80b\n", 0),
    ),
}


class TestStdinFileParity:
    # A file and stdin are the same bytes to the CLI: each command gives the
    # same output, diagnostics and exit code whichever way they arrive.
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    @pytest.mark.parametrize(
        "command,kind", [("compute", 0), ("recognize", 1), ("dot", 0), ("dot", 1)]
    )
    def test_same_result(self, run, tmp_path, case, command, kind):
        data, code = PARITY_CASES[case][kind]
        path = tmp_path / "input"
        path.write_bytes(data)
        from_file = run(command, str(path))
        assert from_file[0] == code, from_file
        assert run(command, "-", stdin=data) == from_file

    def test_invalid_utf8_message(self, run):
        code, out, err = run("compute", "-", stdin=b"(a:0,b\xff:1)r;\n")
        assert (code, out) == (2, "")
        assert err == "error: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte\n"

    def test_stdin_ignores_the_locale_codec(self, tmp_path):
        # The interpreter's stdin text layer decodes with PYTHONIOENCODING;
        # the CLI reads the bytes beneath it, as it reads a file's.
        data = b"\xef\xbb\xbf(a:0,\r\n\xe3\x80\x80b:1,\xc3\xa9:1)r;\r\n"
        path = tmp_path / "t.nwk"
        path.write_bytes(data)
        env = {**os.environ, "PYTHONIOENCODING": "latin-1"}
        argv = [sys.executable, "-m", "fitchgraph.cli", "compute"]
        from_file = subprocess.run([*argv, str(path)], capture_output=True, env=env)
        from_stdin = subprocess.run([*argv, "-"], input=data, capture_output=True, env=env)
        want = "vertices: a b \xe9\na b\na \xe9\nb \xe9\n".encode("latin-1")
        assert (from_file.returncode, from_file.stdout, from_file.stderr) == (0, want, b"")
        assert (from_stdin.returncode, from_stdin.stdout, from_stdin.stderr) == (0, want, b"")


class TestUnwritableNames:
    # Each serializer refuses a name its own parser would not read back.
    def test_explain_newick_delimiters(self, run):
        code, out, err = run("explain", "-", stdin="vertices: a( b:c\na( b:c\n")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write name 'a(':")

    @pytest.mark.parametrize("flags", [[], ["--directed"]])
    def test_compute_comment(self, run, flags):
        code, out, err = run("compute", *flags, "-", stdin="(a#b:1,c:1)r;")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write name 'a#b':")


class TestExplain:
    def test_minimal(self, run, k221_file):
        code, out, _ = run("explain", k221_file, "--minimal")
        assert code == 0
        tree = parse_newick(out)
        assert len(tree.vertices) == 7

    def test_canonical(self, run, k221_file):
        code, out, _ = run("explain", k221_file)
        assert code == 0
        assert len(parse_newick(out).vertices) == 8

    def test_p4(self, run, tmp_path):
        path = tmp_path / "p4.graph"
        path.write_text("vertices: a b c d\na b\nb c\nc d\n")
        # explain rejects with recognize's witness line, byte for byte
        for command in (["explain"], ["explain", "--minimal"], ["recognize"]):
            assert run(*command, str(path)) == (1, "witness: a | c--d\n", "")

    def test_explain_then_verify(self, run, k221_file, tmp_path):
        for flag in ([], ["--minimal"]):
            _, newick, _ = run("explain", k221_file, *flag)
            tree_path = tmp_path / "explained.nwk"
            tree_path.write_text(newick)
            code, out, _ = run("verify", str(tree_path), k221_file)
            assert code == 0
            assert out == "explains: yes\n"


class TestVerify:
    def test_fig1_yes(self, run, fig1_file, tmp_path):
        graph_path = tmp_path / "k3211.graph"
        graph_path.write_text(serialize_edgelist(K3211))
        code, out, _ = run("verify", fig1_file, str(graph_path))
        assert code == 0
        assert out == "explains: yes\n"

    def test_fig1_vs_k4_no(self, run, fig1_file, tmp_path):
        graph_path = tmp_path / "k4.graph"
        k4 = complete_multipartite([{"a"}, {"b"}, {"c"}, {"d"}])
        graph_path.write_text(serialize_edgelist(k4))
        code, out, _ = run("verify", fig1_file, str(graph_path))
        assert code == 1
        assert out == "explains: no\n"

    @pytest.mark.parametrize("text", ["vertices:\n", "vertices: a b c d e f g h\n"])
    def test_other_vertex_set_no(self, run, fig1_file, tmp_path, text):
        graph_path = tmp_path / "other.graph"
        graph_path.write_text(text)
        for flags in ([], ["--least-resolved"]):
            code, out, _ = run("verify", fig1_file, str(graph_path), *flags)
            assert code == 1
            assert out == "explains: no\n"

    def test_least_resolved_yes(self, run, k221_file, tmp_path):
        _, newick, _ = run("explain", k221_file, "--minimal")
        tree_path = tmp_path / "minimal.nwk"
        tree_path.write_text(newick)
        code, out, _ = run("verify", str(tree_path), k221_file, "--least-resolved")
        assert code == 0
        assert out == "explains: yes\nleast-resolved: yes\n"

    def test_least_resolved_no(self, run, k221_file, tmp_path):
        _, newick, _ = run("explain", k221_file)
        tree_path = tmp_path / "canonical.nwk"
        tree_path.write_text(newick)
        code, out, _ = run("verify", str(tree_path), k221_file, "--least-resolved")
        assert code == 1
        assert out == "explains: yes\nleast-resolved: no\n"


class TestEnumerate:
    def test_n3(self, run):
        code, out, _ = run("enumerate", "3")
        assert code == 0
        assert out == (
            "leaves: 3\ntopologies: 1\nlabelings: 8\n"
            "realizable: 5\nexpected: 5\nverdict: PASS\n"
        )

    def test_n4_report(self, run):
        code, out, _ = run("enumerate", "4", "--report")
        assert code == 0
        assert "realizable: 15" in out
        assert "verdict: PASS" in out
        assert out.count("\n  ") + out.count("\n") >= 15

    def test_out_of_range(self, run):
        code, _, err = run("enumerate", "9")
        assert code == 2
        assert "n out of supported range" in err


class TestDot:
    def test_tree(self, run, fig1_file):
        code, out, _ = run("dot", fig1_file)
        assert code == 0
        assert out.startswith("graph {")
        assert '[label="1"]' in out

    def test_graph(self, run, k221_file):
        code, out, _ = run("dot", k221_file)
        assert code == 0
        assert out.startswith("graph {")
        assert '"a" -- "c";' in out

    def test_bad_file(self, run, tmp_path):
        path = tmp_path / "junk"
        path.write_text(")))(((")
        code, _, err = run("dot", str(path))
        assert code == 2

    def test_missing_file(self, run):
        code, _, err = run("dot", "/nonexistent/in.nwk")
        assert code == 2


class TestUsage:
    def test_no_command(self, run):
        code, _, _ = run()
        assert code == 2

    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert out.startswith("usage:")

    def test_unknown_command(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_flags_do_not_carry_over(self, run, k221_file, tmp_path):
        # main reuses one parser; each call must start from its defaults
        pair = tmp_path / "pair.nwk"
        pair.write_text("(a:1,b:0)r;")
        assert run("compute", str(pair), "--directed") == (0, "vertices: a b\nb a\n", "")
        assert run("compute", str(pair)) == (0, "vertices: a b\na b\n", "")
        _, minimal, _ = run("explain", k221_file, "--minimal")
        _, canonical, _ = run("explain", k221_file)
        assert minimal != canonical
        tree_path = tmp_path / "canonical.nwk"
        tree_path.write_text(canonical)
        code, out, _ = run("verify", str(tree_path), k221_file, "--least-resolved")
        assert (code, out) == (1, "explains: yes\nleast-resolved: no\n")
        code, out, _ = run("verify", str(tree_path), k221_file)
        assert (code, out) == (0, "explains: yes\n")


def test_setup_call_leaves_numpy_unimported():
    # the benchmark's set-up call: import the CLI and run one tiny command
    code = (
        "import sys; import fitchgraph.cli as c; code = c.main(['enumerate', '2']); "
        "sys.exit(code or ('numpy' in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("leaves: 2\n")


def test_runs_with_numpy_blocked(tmp_path):
    # numpy is only a test dependency: with its import made to fail, the
    # oracle and the CLI still run.
    path = tmp_path / "p4.txt"
    path.write_text("vertices: a b c d\na b\nb c\nc d\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.modules['numpy'] = None; sys.path.insert(0, sys.argv[1])\n"
        "from fitchgraph.graphs import SimpleGraph\n"
        "from fitchgraph.recognition import ForbiddenWitness, Partition, recognize_bruteforce\n"
        "p3 = recognize_bruteforce(SimpleGraph.build('abc', [('a', 'b'), ('b', 'c')]))\n"
        "assert p3 == Partition.canonical(['ac', 'b']), p3\n"
        "p4 = recognize_bruteforce(SimpleGraph.build('abcd', [('a', 'b'), ('b', 'c'), ('c', 'd')]))\n"
        "assert p4 == ForbiddenWitness('a', ('c', 'd')), p4\n"
        "import fitchgraph.cli as c; sys.exit(c.main(['recognize', sys.argv[2]]))"
    )
    proc = subprocess.run([sys.executable, "-c", code, src, str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "witness: a | c--d\n", "")


def test_setup_call_imports_no_dataclasses():
    # A fresh CLI call pays for every module the package imports, so the
    # package keeps dataclasses (which pulls in inspect) and string out.
    # -S and an emptied PYTHONPATH leave src as the only added path, so no
    # site hook can load them first.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fitchgraph.cli as c; "
        "code = c.main(['enumerate', '2']); "
        "print(sorted({'dataclasses', 'inspect', 'string'} & set(sys.modules))); sys.exit(code)"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("leaves: 2\n")
    assert proc.stdout.endswith("\n[]\n")


def test_installed_entry_point(tmp_path):
    path = tmp_path / "star.nwk"
    path.write_text("(a:1,b:1,c:0)r;")
    proc = subprocess.run(
        [sys.executable, "-m", "fitchgraph.cli", "compute", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "vertices: a b c\na b\na c\nb c\n"
