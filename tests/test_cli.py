import contextlib
import io
import json
import os
import random
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli_golden import run

import plumbcap
from plumbcap import cli, pipeline
from plumbcap.cli import cli_main
from plumbcap.dualcap import build_dual
from plumbcap.intlin import GramMatrix, mu_bar
from plumbcap.plumbing import (MAX_VERTICES, PlumbingGraph, generate_gamma_n, gram_matrix,
                               serialize_plumbing)

A2_JSON = json.dumps(GramMatrix.from_rows([[-2, 1], [1, -2]]).to_json_dict())
README = Path(__file__).resolve().parents[1] / "README.md"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_gamma_n_prints_graph_file(capsys):
    assert cli_main(["gamma-n", "3"]) == 0
    out = capsys.readouterr().out
    assert out == serialize_plumbing(generate_gamma_n(3))


def test_gamma_n_rejects_small_n(capsys):
    assert cli_main(["gamma-n", "1"]) == 2
    assert "n >= 2" in capsys.readouterr().err


def test_gamma_n_upper_bound_in_process(capsys):
    assert cli_main(["gamma-n", str(MAX_VERTICES - 5)]) == 2
    assert capsys.readouterr().err == "plumbcap: gamma-n needs n <= %d\n" % (MAX_VERTICES - 6)
    assert cli_main(["gamma-n", str(MAX_VERTICES - 6)]) == 0
    assert capsys.readouterr().out.count("v ") == MAX_VERTICES


def test_usage_errors_exit_2(capsys):
    assert cli_main([]) == 2
    assert cli_main(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "obstruct" in capsys.readouterr().out


def test_missing_file_exits_2(capsys):
    assert cli_main(["validate", "/no/such/file"]) == 2
    assert "plumbcap:" in capsys.readouterr().err


def test_closed_stdout_is_not_an_error(tmp_path):
    # The reader takes one line and closes the pipe while the command is
    # still writing its 3.2 MB dual (rank 1024).
    path = write(tmp_path, "g.txt", "v 0 -1025\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plumbcap.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from plumbcap.cli import main; main()", "dual", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"root: 0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("argv, stdin, code, err", [
    (["obstruct", "--budget-nodes", "-1", "-"], "v 0 -2\n", 2,
     "node budget must be nonnegative"),
    (["embed", "--rank", "-1", "-"], A2_JSON, 2, "target rank must be nonnegative"),
    # A triangle and an isolated vertex: |E| = |V| - 1, yet no tree.
    (["dual", "-"], "v 0 -3\nv 1 -3\nv 2 -3\nv 3 -2\ne 0 1\ne 1 2\ne 0 2\n", 3,
     "invalid plumbing graph: not a tree (vertices [3])"),
    (["validate", "-"], "v 0 -2\ne 0 x\n", 3, "line 2: bad edge endpoint"),
    (["dual", "--root", "99", "-"], "v 0 -4\n", 3, "no vertex 99"),
    (["obstruct", "--root", "99", "-"], "v 0 -4\n", 3, "no vertex 99"),
] + [
    # One check decides whether a graph has a cap, for both commands, and
    # refuses in validate's words.
    ([command, "-"], text, 3, "invalid plumbing graph: " + err)
    for command in ("openbook", "dual") for text, err in (
        ("v 0 -3\nv 1 -3\nv 2 -3\ne 0 1\ne 1 2\ne 0 2\n", "not a tree (vertices [1, 2])"),
        ("v 0 -1\nv 1 -5\nv 2 -5\ne 0 1\ne 0 2\n",
         "framing smaller than valency (vertices [0])"),
        ("v 0 -1\nv 1 -1\ne 0 1\n", "not negative definite (vertices [0])"))
] + [
    # mu-bar is a tree's invariant: a cycle is refused before any form.
    (["mubar", "-"], "v 0 -3\nv 1 -3\nv 2 -3\ne 0 1\ne 1 2\ne 0 2\n", 3,
     "invalid plumbing graph: not a tree (vertices [1, 2])"),
])
def test_rejected_input_prints_one_message(monkeypatch, capsys, argv, stdin, code, err):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli_main(argv) == code
    assert capsys.readouterr() == ("", "plumbcap: %s\n" % err)


JSON_COMMANDS = (
    ["validate"], ["gram"], ["openbook"], ["dual"], ["dual", "--gram-only"],
    ["embed", "--no-timings"], ["wu"], ["wu", "--gram"], ["mubar"], ["mubar", "--gram"],
    ["obstruct", "--no-timings"],
)


def sorted_keys(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_json_is_one_line_of_the_handlers_document(tmp_path, capsys, argv):
    takes_gram = argv[0] == "embed" or "--gram" in argv
    path = write(tmp_path, "in.txt", A2_JSON if takes_gram else "v 0 -3\nv 1 -2\ne 0 1\n")
    argv = argv + [path, "--json"]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    args = cli._build_parser().parse_args(argv)
    assert json.loads(out, object_pairs_hook=sorted_keys) == args.handler(args)[1]


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "v 0 -2\n")
    assert cli_main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_bad_graph_exits_3(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "v 0 -1\nv 1 -1\ne 0 1\n")
    assert cli_main(["validate", path, "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["negative_definite"] is False
    assert doc["offending_vertices"] == [0]


def test_parse_error_exits_3(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "v 0 -2\nv 0 -2\n")
    assert cli_main(["validate", path]) == 3
    assert "line 2" in capsys.readouterr().err


def test_gram_json_schema(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "v 0 -4\nv 1 -2\ne 0 1\n")
    assert cli_main(["gram", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"rank": 2, "labels": ["0", "1"], "gram": [[-4, 1], [1, -2]]}


def test_openbook_json(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "v 0 -4\n")
    assert cli_main(["openbook", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["holes"]) == 4
    assert len(doc["curves"]) == 4


def test_dual_json_and_gram_only(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "v 0 -4\n")
    assert cli_main(["dual", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["root"] == 0
    assert [s["framing"] for s in doc["strings"]] == [-2, -2, -2]

    assert cli_main(["dual", path, "--gram-only", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 3
    assert doc["labels"] == ["u0#0", "u0#1", "u0#2"]
    assert doc["gram"][0] == [-2, -1, -1]


def test_dual_bad_root_exits_3(tmp_path, capsys):
    # Vertex 1 has -e - d = 0: present, but no string to remove.
    path = write(tmp_path, "g.txt", "v 0 -4\nv 1 -1\ne 0 1\n")
    assert cli_main(["dual", path, "--root", "99"]) == 3
    assert cli_main(["dual", path, "--root", "1"]) == 3
    capsys.readouterr()


def test_dual_without_admissible_root_exits_3(tmp_path, capsys):
    star = "v 0 -3\nv 1 -1\nv 2 -1\nv 3 -1\ne 0 1\ne 0 2\ne 0 3\n"
    path = write(tmp_path, "g.txt", star)
    assert cli_main(["dual", path]) == 3
    err = capsys.readouterr().err
    assert err == "plumbcap: invalid plumbing graph: not negative definite (vertices [0])\n"


def test_dual_rejects_negative_string_counts(tmp_path, capsys):
    # validate rejects both: the first as vertex 0's framing is smaller
    # than its valency, the second as its framing 2 is not negative definite.
    for text, fault in (("v 0 -1\nv 1 -5\nv 2 -5\ne 0 1\ne 0 2\n",
                         "framing smaller than valency"),
                        ("v 0 2\nv 1 -9\ne 0 1\n",
                         "not negative definite")):
        path = write(tmp_path, "g.txt", text)
        assert cli_main(["dual", path]) == 3
        assert capsys.readouterr().err == (
            "plumbcap: invalid plumbing graph: %s (vertices [0])\n" % fault)


def test_embed_rank_toggle(tmp_path, capsys):
    path = write(tmp_path, "a2.json", A2_JSON)
    assert cli_main(["embed", path, "--rank", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["embeddable"] is False and doc["completed"] is True

    assert cli_main(["embed", path, "--rank", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["embeddable"] is True
    assert len(doc["witness"]) == 2


def test_embed_default_rank_is_form_rank(tmp_path, capsys):
    path = write(tmp_path, "a2.json", A2_JSON)
    assert cli_main(["embed", path]) == 0
    assert "not embeddable into <-1>^2" in capsys.readouterr().out


@pytest.mark.parametrize("rank, line", [
    (2, "not embeddable into <-1>^2: determinant 3 is not a square\n"),
    (1, "not embeddable into <-1>^1: the form has rank 2\n"),
])
def test_embed_prints_certificates(tmp_path, capsys, rank, line):
    path = write(tmp_path, "a2.json", A2_JSON)
    assert cli_main(["embed", path, "--rank", str(rank), "--budget-nodes", "0"]) == 0
    assert capsys.readouterr().out == line


def test_embed_prints_searched_refutation(tmp_path, capsys):
    gram = build_dual(generate_gamma_n(3), 0).gram
    path = write(tmp_path, "dual.json", json.dumps(gram.to_json_dict()))
    assert cli_main(["embed", path]) == 0
    assert capsys.readouterr().out == "not embeddable into <-1>^10 (880 nodes)\n"


def test_embed_budget_exits_4(tmp_path, capsys):
    gram = build_dual(generate_gamma_n(7), 2).gram
    path = write(tmp_path, "dual.json", json.dumps(gram.to_json_dict()))
    assert cli_main(["embed", path, "--budget-nodes", "50"]) == 4
    assert "undecided" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [
    '{"rank": 1, "labels": ["a"], "gram": [[-2.7]]}',
    '{"rank": 2, "labels": ["a", "b"], "gram": [[-2, true], [true, -2]]}',
    '{"rank": true, "labels": ["a"], "gram": [[-2]]}',
    '{"rank": 1.0, "labels": ["a"], "gram": [[-2]]}',
    '{"rank": 1, "labels": ["a"], "gram": [["-2"]]}',
    '{"rank": 1, "labels": null, "gram": [[-2]]}',
    '{"rank": 1, "labels": 7, "gram": [[-2]]}',
    '{"rank": 1, "labels": [[1]], "gram": [[-2]]}',
    pytest.param("[" * 100000, id="nested-100000-deep"),
])
def test_embed_rejects_non_integer_gram_json(tmp_path, capsys, doc):
    path = write(tmp_path, "q.json", doc)
    assert cli_main(["embed", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("plumbcap: ")


@pytest.mark.parametrize("argv", [["embed"], ["wu", "--gram"], ["mubar", "--gram"]],
                         ids=" ".join)
def test_gram_json_integer_past_the_digit_limit_exits_3(tmp_path, capsys, argv):
    # json.loads itself refuses the integer; the message says what is wrong
    # with the document, not how to raise the interpreter's limit.
    limit = sys.get_int_max_str_digits()
    path = write(tmp_path, "q.json",
                 '{"rank": 1, "labels": ["a"], "gram": [[-%s]]}' % ("9" * (limit + 700)))
    assert cli_main(argv + [path]) == 3
    assert capsys.readouterr() == (
        "", "plumbcap: gram JSON has an integer with more than %d digits\n" % limit)


def test_embed_deep_search_exits_0(tmp_path, capsys):
    # A_100 in <-1>^101: its walk goes 5,150 positions deep.
    n = 100
    a_chain = [[-2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    path = write(tmp_path, "q.json", json.dumps(GramMatrix.from_rows(a_chain).to_json_dict()))
    assert cli_main(["embed", path, "--rank", str(n + 1), "--json", "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    witness = doc.pop("witness")
    assert doc == {"embeddable": True, "nodes": 10395, "completed": True}
    assert witness[:2] == [[1, 1] + [0] * (n - 1), [0, -1, 1] + [0] * (n - 2)]
    assert witness[-1] == [0] * (n - 1) + [-1, 1]


def test_embed_rejects_indefinite_gram(tmp_path, capsys):
    path = write(tmp_path, "bad.json",
                 json.dumps(GramMatrix.from_rows([[2]]).to_json_dict()))
    assert cli_main(["embed", path]) == 3
    capsys.readouterr()


def test_wu_and_mubar(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "v 0 -3\n")
    assert cli_main(["wu", path]) == 0
    assert capsys.readouterr().out.strip() == "wu class: 0"

    assert cli_main(["mubar", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"mu_bar": 2}

    gram_path = write(tmp_path, "q.json", A2_JSON)
    assert cli_main(["wu", gram_path, "--gram", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"labels": ["0", "1"], "classes": [[0, 0]]}


def test_mubar_exits_3_on_even_determinant(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "v 0 -2\n")
    assert cli_main(["mubar", path]) == 3
    assert "plumbcap:" in capsys.readouterr().err


def test_mubar_on_a_tree_runs_no_sylvester_scan(tmp_path, capsys, monkeypatch):
    # A tree's mu-bar comes from validate and tree_wu_class, in O(V + E).
    def refuse(*args, **kwargs):
        raise AssertionError("a Sylvester scan ran")

    monkeypatch.setattr(plumbcap.intlin, "first_sylvester_violation", refuse)
    framings = [-3] * 400
    path = write(tmp_path, "g.txt", "".join("v %d %d\n" % v for v in enumerate(framings))
                 + "".join("e %d %d\n" % (v, v + 1) for v in range(399)))
    assert cli_main(["mubar", path]) == 0
    assert capsys.readouterr().out == "mu-bar: 2\n"  # as the dense path gives
    assert cli_main(["mubar", write(tmp_path, "c.txt", chain(MAX_VERTICES, end=-2))]) == 0
    assert capsys.readouterr().out == "mu-bar: -%d\n" % MAX_VERTICES


def test_wu_on_a_graph_builds_no_gram_matrix(tmp_path, capsys, monkeypatch):
    # A graph's Wu classes come from its edges, with no V x V form.
    def refuse(*args, **kwargs):
        raise AssertionError("a V x V form was built")

    monkeypatch.setattr(plumbcap.plumbing, "gram_matrix", refuse)
    monkeypatch.setattr(plumbcap.cli, "gram_matrix", refuse)
    assert cli_main(["wu", write(tmp_path, "c.txt", chain(MAX_VERTICES, end=-2))]) == 0
    assert capsys.readouterr() == ("wu class: (empty)\n", "")


def test_mubar_matches_the_dense_path_on_trees_and_refuses_a_cycle_as_obstruct_does():
    # A tree gives the value, or the refusal text, of mu_bar on the dense
    # form, definite or not, of odd or even determinant.  A graph with a
    # cycle is refused as obstruct refuses it, and its dense mu-bar is
    # still one pipe away: gram --json | mubar --gram -.
    rng = random.Random(31)
    cycles = 0
    for k in range(300):
        n = rng.randint(1, 8)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        if n > 2 and k % 5 == 0:
            edges.add((0, n - 1))
        g = PlumbingGraph(vertices=tuple((v, rng.randint(-5, 1)) for v in range(n)),
                          edges=tuple(edges))
        text = serialize_plumbing(g)
        try:
            dense = (0, "mu-bar: %d\n" % mu_bar(gram_matrix(g)), "")
        except ValueError as exc:
            dense = (3, "", "plumbcap: %s\n" % exc)
        got = run(["mubar", "-"], text)
        if len(edges) == n - 1:
            assert got == dense, text
            continue
        cycles += 1
        code, _, err = run(["obstruct", "--budget-nodes", "0", "--no-timings", "-"], text)
        assert got == (code, "", err) and code == 3, text
        form = run(["gram", "--json", "-"], text)
        assert form[0] == 0, text
        assert run(["mubar", "--gram", "-"], form[1]) == dense, text
    assert cycles > 30


def test_obstruct_verdict_exit_codes(tmp_path, capsys):
    obstructed = write(tmp_path, "o.txt", "v 0 -2\n")
    assert cli_main(["obstruct", obstructed]) == 0
    assert "verdict: obstructed" in capsys.readouterr().out

    inconclusive = write(tmp_path, "i.txt", "v 0 -4\n")
    assert cli_main(["obstruct", inconclusive]) == 0
    capsys.readouterr()
    assert cli_main(["obstruct", inconclusive, "--fail-on-inconclusive"]) == 1
    capsys.readouterr()
    assert cli_main(["obstruct", obstructed, "--fail-on-inconclusive"]) == 0
    capsys.readouterr()


def test_obstruct_prints_determinant_certificate(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "v 0 -33\n")
    assert cli_main(["obstruct", path]) == 0
    out = capsys.readouterr().out
    assert "root 0: no embedding into <-1>^32: determinant 33 is not a square\n" in out
    assert "verdict: obstructed" in out


def test_obstruct_budget_exits_4(tmp_path, capsys):
    path = write(tmp_path, "g.txt", serialize_plumbing(generate_gamma_n(7)))
    assert cli_main(["obstruct", path, "--budget-nodes", "10"]) == 4
    assert "undecided" in capsys.readouterr().out


def test_obstruct_invalid_graph_exits_3(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "v 0 -1\nv 1 -1\ne 0 1\n")
    assert cli_main(["obstruct", path]) == 3
    assert "plumbcap:" in capsys.readouterr().err


def test_obstruct_json_reproducible_without_timings(tmp_path, capsys):
    path = write(tmp_path, "g.txt", serialize_plumbing(generate_gamma_n(3)))
    argv = ["obstruct", path, "--json", "--no-timings"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["verdict"] == "obstructed"
    assert "total_millis" not in doc


def test_obstruct_builds_only_the_requested_form(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "g.txt", serialize_plumbing(generate_gamma_n(3)))

    def refuse(*args):
        raise AssertionError("the other output form was built")

    for argv, other in ((["--json"], (pipeline, "render_report")),
                        ([], (pipeline.ObstructionReport, "to_json_dict"))):
        argv = ["obstruct", path, "--no-timings"] + argv
        assert cli_main(argv) == 0
        expected = capsys.readouterr().out
        with monkeypatch.context() as patch:
            patch.setattr(*other, refuse)
            assert cli_main(argv) == 0
        assert capsys.readouterr().out == expected


def test_stdin_dash(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("v 0 -2\n"))
    assert cli_main(["validate", "-"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_readme_examples_hold(monkeypatch, capsys):
    # Every README block that opens with a "$ " pipeline, run stage by
    # stage in process; its stdout must be the block's text to the byte.
    examples = re.findall(r"^```\n\$ ([^\n]*)\n(.*?)^```$", README.read_text(), re.M | re.S)
    commands = [command for command, _ in examples]
    assert "plumbcap gamma-n 7 | plumbcap obstruct --no-timings -" in commands
    assert "plumbcap gamma-n 2 | plumbcap dual --gram-only --json - | plumbcap embed -" in commands
    for command, expected in examples:
        out = ""
        for stage in command.split(" | "):
            program, *argv = shlex.split(stage)
            if program == "printf":
                out = argv[0].replace("\\n", "\n")
                continue
            assert program == "plumbcap", command
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            assert cli_main(argv) == 0, command
            out = capsys.readouterr().out
        assert out == expected, command


def test_console_script_pipeline():
    # Run the [project.scripts] target on both sides of the pipe, so the
    # test needs no installed plumbcap executable.
    script = "%s -c 'from plumbcap.cli import main; main()'" % shlex.quote(sys.executable)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plumbcap.__file__)))
    proc = subprocess.run(
        "%s gamma-n 2 | %s obstruct -" % (script, script),
        shell=True, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: inconclusive" in proc.stdout


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


HUGE_FRAMING = "v 0 -100000000000000000000\n"  # dual rank 10^20 - 1
STAR_41 = "v 0 -40\n" + "".join("v %d -2\ne 0 %d\n" % (v, v) for v in range(1, 41))


def chain(n: int, end: int = -3) -> str:
    """A path of n vertices framed end, -2, ..., -2, end: dual rank 3 by
    default."""
    framings = [end] + [-2] * (n - 2) + [end]
    return "".join("v %d %d\n" % v for v in enumerate(framings)) + "".join(
        "e %d %d\n" % (v, v + 1) for v in range(n - 1))


@pytest.mark.parametrize("command, text, flags", [
    pytest.param(command, HUGE_FRAMING, [], id=command + "-huge-framing")
    for command in ("obstruct", "dual", "openbook")
] + [
    pytest.param("wu", STAR_41, [], id="wu-star-41"),  # 2^39 Wu classes
] + [
    # A small dual rank, but V x V forms and root paths.
    pytest.param(command, chain(20000), [], id=command + "-chain-20000")
    for command in ("obstruct", "validate", "gram", "dual", "openbook", "wu", "mubar")
] + [
    pytest.param("embed", '{"rank": 1, "labels": ["a"], "gram": [[-1]]}',
                 ["--rank", "1000000000"], id="embed-huge-rank"),
])
def test_oversized_inputs_exit_3_under_a_memory_cap(tmp_path, command, text, flags):
    # Refused before anything sized by them is allocated, so a 1 GB
    # address-space cap ends in no MemoryError.
    path = write(tmp_path, "g.txt", text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plumbcap.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "from plumbcap.cli import main; main()", command, path] + flags,
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space,
        timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("plumbcap: ") and "exceeds the bound" in proc.stderr


@pytest.mark.parametrize("n, code", [
    (MAX_VERTICES - 6, 0), (MAX_VERTICES - 5, 2), (50000000, 2)])
def test_gamma_n_is_bounded_by_the_vertex_bound_under_a_memory_cap(n, code):
    # gamma-n has n + 6 vertices; past the bound it is a usage error, as
    # n = 1 is, before the graph is built.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plumbcap.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "from plumbcap.cli import main; main()", "gamma-n", str(n)],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space,
        timeout=120)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == "plumbcap: gamma-n needs n <= %d\n" % (MAX_VERTICES - 6)
    else:
        assert proc.stdout.count("v ") == MAX_VERTICES


def test_a_chain_at_the_vertex_bound_runs_dual_under_a_memory_cap(tmp_path):
    path = write(tmp_path, "g.txt", chain(MAX_VERTICES))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plumbcap.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "from plumbcap.cli import main; main()", "dual", path],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["root: 0", "u0#0: vertex 0, distance 0, framing -2"]
    assert proc.stdout.count("vertex %d," % (MAX_VERTICES - 1)) == 2


def test_an_all_minus_three_chain_at_the_vertex_bound_obstructs_under_a_memory_cap(tmp_path):
    # Every vertex owns a string, so the dual has 2,048 owners at 2,048
    # depths.  The pipeline builds it before the determinant, the
    # Fibonacci number F(4098) and no square, obstructs.
    text = "".join("v %d -3\n" % v for v in range(MAX_VERTICES)) + "".join(
        "e %d %d\n" % (v, v + 1) for v in range(MAX_VERTICES - 1))
    path = write(tmp_path, "g.txt", text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plumbcap.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "from plumbcap.cli import main; main()",
         "obstruct", "--budget-nodes", "0", path],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: obstructed" in proc.stdout
    assert "is not a square" in proc.stdout


def _ring(n: int) -> str:
    return chain(n) + "e 0 %d\n" % (n - 1)


def _forest(n: int) -> str:
    return "".join("v %d -2\n" % v for v in range(n))


@pytest.mark.parametrize("text, message", [
    # The walk from 0 goes both ways round the ring and meets at the far side.
    (_ring(MAX_VERTICES), "not a tree (vertices [%d, %d])" % (MAX_VERTICES // 2,
                                                              MAX_VERTICES // 2 + 1)),
    (_forest(MAX_VERTICES), "not a tree (vertices %s)" % list(range(1, MAX_VERTICES))),
    # (-1, 2046 x -2, -1): every pivot from the far end is -1, the root's 0.
    (chain(MAX_VERTICES, -1), "not negative definite (vertices [0])"),
], ids=["cycle", "forest", "indefinite-chain"])
def test_validate_refuses_at_the_vertex_bound_without_a_dense_form(monkeypatch, capsys,
                                                                   text, message):
    # A refused graph names its offender from the walk and the elimination:
    # no V x V form is built and no Sylvester scan runs.
    called = []
    for module, name in ((plumbcap.intlin, "first_sylvester_violation"),
                         (plumbcap.plumbing, "gram_matrix"),
                         (cli, "gram_matrix")):
        monkeypatch.setattr(module, name, lambda *args, _name=name: called.append(_name))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli_main(["validate", "-"]) == 3
    assert capsys.readouterr() == (message + "\n", "")
    assert called == []


def test_mubar_refuses_a_ring_at_the_vertex_bound_under_a_memory_cap(tmp_path):
    # Refused by validate's walk, not by an O(V^3) scan of the ring's form.
    text = "".join("v %d -3\n" % v for v in range(MAX_VERTICES)) + "".join(
        "e %d %d\n" % (v, (v + 1) % MAX_VERTICES) for v in range(MAX_VERTICES))
    path = write(tmp_path, "g.txt", text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plumbcap.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "from plumbcap.cli import main; main()", "mubar", path],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space,
        timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == "plumbcap: invalid plumbing graph: not a tree (vertices [%d, %d])\n" % (
        MAX_VERTICES // 2, MAX_VERTICES // 2 + 1)


def test_an_oversized_integer_is_refused_with_its_line(monkeypatch, capsys):
    text = "v 0 -2\nv 1 -%s\ne 0 1\n" % ("9" * 5000)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli_main(["validate", "-"]) == 3
    assert capsys.readouterr().err.startswith("plumbcap: line 2:")


def test_dual_reports_the_vertex_bound_before_the_rank_bound(monkeypatch, capsys):
    # 3,000 vertices framed -2 would make a dual of rank 5,999, past its
    # bound too; the graph is refused first, as every graph command does.
    text = "".join("v %d -2\n" % v for v in range(3000))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli_main(["dual", "-"]) == 3
    assert capsys.readouterr() == (
        "", "plumbcap: vertex count 3000 exceeds the bound %d\n" % MAX_VERTICES)


def test_invalid_budget_is_reported_before_an_oversized_rank(tmp_path, capsys):
    # embed_diagonal refuses the rank, so the budget is resolved first.
    path = write(tmp_path, "q.json", A2_JSON)
    assert cli_main(["embed", path, "--rank", "1000000000", "--budget-nodes", "-1"]) == 2
    assert capsys.readouterr().err == "plumbcap: node budget must be nonnegative\n"


# The bounds keep each example fast, not safe: framings in the thousands
# give duals whose O(r^3) definiteness check no node budget covers, and
# many -2 leaves make `wu` list up to 2^22 bits of classes.  Both cost run
# time; neither prints a traceback.  Framings past a dual rank of 4096 and
# wider stars exit 3 (test_oversized_inputs_exit_3_under_a_memory_cap).
# Framings and Gram entries lean toward values that pass validation, so
# that many examples reach the search.
FRAMINGS = st.one_of(st.integers(-5, -2), st.integers(-9, 4))
JUNK_LINES = st.one_of(
    st.sampled_from(["", "# comment", "v", "v 1", "e 0", "x 1 2", "v -1 -2",
                     "v 0 -2.5", "v 0 --2", "e 0 1 2", "{}"]),
    st.text(max_size=6),
)


@st.composite
def graph_documents(draw):
    """At most 6 `v` lines and 7 `e` lines in any order, usually a tree
    plus stray edges, with a junk line now and then."""
    ids = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6, unique=True))
    lines = ["v %d %d" % (v, draw(FRAMINGS)) for v in ids]
    if draw(st.integers(0, 3)):
        lines += ["e %d %d" % (v, ids[draw(st.integers(0, i))])
                  for i, v in enumerate(ids[1:])]
    if draw(st.integers(0, 3)) == 0:
        ends = st.one_of(st.sampled_from(ids), st.integers(0, 8))
        lines += draw(st.lists(st.builds("e {} {}".format, ends, ends),
                               max_size=7 - (len(lines) - len(ids))))
    if draw(st.integers(0, 4)) == 0:
        lines.append(draw(JUNK_LINES))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def gram_documents(draw):
    """Gram JSON of rank at most 4, sometimes asymmetric, sometimes with a
    field of the wrong type."""
    n = draw(st.integers(0, 4))
    rows = [[draw(st.one_of(st.integers(-6, -1) if i == j else st.integers(-1, 1),
                            st.integers(-6, 3)))
             for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    doc = {"rank": n, "labels": ["s%d" % i for i in range(n)], "gram": rows}
    field = draw(st.sampled_from([None, None, "rank", "labels", "gram"]))
    if field is not None:
        doc[field] = draw(st.sampled_from([None, 1.5, True, "x", [], [[1]], [None], {}]))
    return json.dumps(doc)


STDIN_COMMANDS = (
    ["validate"], ["validate", "--json"], ["gram"], ["gram", "--json"],
    ["openbook"], ["openbook", "--json"], ["dual"], ["dual", "--gram-only", "--json"],
    ["wu"], ["wu", "--json"], ["mubar"], ["mubar", "--json"],
    ["obstruct", "--budget-nodes", "3000"],
    ["obstruct", "--all-roots", "--json", "--budget-nodes", "3000"],
    ["embed", "--budget-nodes", "3000"], ["embed", "--json", "--budget-nodes", "3000"],
    ["wu", "--gram"], ["mubar", "--gram", "--json"],
)


def run_quietly(argv, stdin_text=""):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli_main(argv)
    finally:
        sys.stdin = saved


@settings(derandomize=True, deadline=None)
@given(st.one_of(graph_documents(), gram_documents()), st.integers(-2, 9))
def test_property_cli_never_raises(document, n):
    for command in STDIN_COMMANDS:
        assert run_quietly(command + ["-"], document) in {0, 1, 2, 3, 4}, command
    assert run_quietly(["gamma-n", str(n)]) in {0, 2}
