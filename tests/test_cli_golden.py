"""One sha256 per CLI form over a fixed corpus of graph documents.

Each form is run in process on every document, and its digest hashes
(exit code, stdout, stderr) of every run in corpus order.  A change that
moves a digest changes what that form prints for some document.  After
a deliberate change, refreeze with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and list the forms that moved, and why.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from oracles import random_valid_tree
import plumbcap.cli
import plumbcap.intlin
import plumbcap.plumbing
from plumbcap.cli import cli_main
from plumbcap.plumbing import generate_gamma_n, parse_plumbing, serialize_plumbing, validate

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

FORMS = (
    "validate", "validate --json", "gram --json", "openbook", "openbook --json",
    "dual", "dual --json", "dual --gram-only --json", "wu --json", "mubar --json",
    "obstruct --no-timings --budget-nodes 20000",
    "obstruct --all-roots --json --no-timings --budget-nodes 20000",
)

# Each with one fault, or a graph that validation refuses.
MALFORMED = (
    "", "# only a comment\n", "v 0\n", "v x -2\n", "v 0 +2\n", "v 0 -2 extra\n",
    "w 0 -2\n", "v -1 -2\n", "v 0 -2.5\n", "{}\n", "v 0 -2\ne 0 x\n", "v 0 -2\ne 0\n",
    "v 0 -2\nv 0 -3\n", "v 0 -2\ne 0 0\n", "v 0 -2\ne 0 1\n",
    "v 0 -2\nv 1 -2\ne 0 1\ne 1 0\n",
    "v 0 -3\nv 1 -3\nv 2 -3\ne 0 1\ne 1 2\ne 0 2\n",  # a triangle
    "v 0 -3\nv 1 -3\nv 2 -3\nv 3 -2\ne 0 1\ne 1 2\ne 0 2\n",  # and an isolated vertex
    "v 0 -2\nv 1 -2\n",  # a forest
    "v 0 1\n",
    "v 0 -100000000000000000000\n",  # dual rank past the bound
)


def arbitrary_tree(rng: random.Random) -> str:
    """A tree on 1..8 vertices, framings in [-7, 3], valid or not."""
    n = rng.randint(1, 8)
    lines = ["v %d %d" % (v, rng.randint(-7, 3)) for v in range(n)]
    lines += ["e %d %d" % (rng.randrange(v), v) for v in range(1, n)]
    return "\n".join(lines) + "\n"


def corpus() -> list[str]:
    rng = random.Random(20261019)
    return ([serialize_plumbing(generate_gamma_n(n)) for n in range(2, 8)]
            + [serialize_plumbing(random_valid_tree(rng)) for _ in range(100)]
            + [arbitrary_tree(rng) for _ in range(100)]
            + list(MALFORMED))


def run(argv: list[str], stdin_text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digests() -> dict[str, str]:
    documents = corpus()
    result = {}
    for form in FORMS:
        h = hashlib.sha256()
        for text in documents:
            h.update(json.dumps(run(form.split() + ["-"], text)).encode() + b"\n")
        result[form] = h.hexdigest()
    return result


def test_cli_output_matches_the_golden_digests():
    assert digests() == json.loads(GOLDEN.read_text())


def test_dual_and_openbook_refuse_as_obstruct_does():
    # One decision, in one set of words: wherever either side refuses,
    # at the default root, at every vertex and at a missing root.
    pairs = []
    for text in corpus():
        try:
            ids = parse_plumbing(text).ids()
        except ValueError:
            ids = ()
        for root in (None, *ids, 99):
            at = [] if root is None else ["--root", str(root)]
            code, _, err = run(["obstruct", "--budget-nodes", "0", "--no-timings", *at, "-"], text)
            for form in ("dual", "openbook") if root is None else ("dual",):
                got = run([form, *at, "-"], text)
                if 3 in (code, got[0]):
                    pairs.append(((form, root, text), (got[0], got[2]), (code, err)))
    assert len(pairs) > 900
    assert [p for p in pairs if p[1] != p[2]] == []


def test_only_gram_input_reaches_the_dense_code(monkeypatch):
    # No graph command runs a Sylvester scan or mu_bar, and only gram
    # builds the V x V form.  A graph that is not a tree has no mu-bar
    # here: mubar refuses it in obstruct's words.
    def refuse(*args, **kwargs):
        raise AssertionError("a graph command reached the dense code")

    documents = corpus()
    for form in FORMS + ("mubar",):
        with monkeypatch.context() as patch:
            for module, name in ((plumbcap.intlin, "first_sylvester_violation"),
                                 (plumbcap.intlin, "mu_bar"), (plumbcap.cli, "mu_bar")):
                patch.setattr(module, name, refuse)
            if form != "gram --json":
                patch.setattr(plumbcap.plumbing, "gram_matrix", refuse)
                patch.setattr(plumbcap.cli, "gram_matrix", refuse)
            for text in documents:
                run(form.split() + ["-"], text)

    refused = 0
    for text in documents:
        try:
            if validate(parse_plumbing(text)).is_tree:
                continue
        except ValueError:
            continue
        code, _, err = run(["obstruct", "--budget-nodes", "0", "--no-timings", "-"], text)
        refused += 1
        assert code == 3 and run(["mubar", "-"], text) == (code, "", err), text
    assert refused == 3


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=2) + "\n")
