"""Benchmark of ``plumbcap obstruct`` on four fixed workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

One operation is one ``plumbcap obstruct FILE --json --no-timings`` call
through ``plumbcap.cli.cli_main``, in this process with stdout captured, so
that Python start-up is not what gets measured.  Set-up imports plumbcap
from ``src/`` and writes the workload's graph files under ``.bench_build/``;
it is repeated and its median reported as ``setup_s``.  Then whole passes
over the workload run until the next pass would overrun ``--seconds``
(always at least one).  ``--seed`` fixes the order of the graphs in a pass.
Times are reported at reference speed (see ``speed.py``); the raw times
are kept in the record.

Every output is checked outside the timed region against arithmetic in
``oracle.py`` and the verdicts in ``reference.json``; a failed check counts
in ``failed`` and never stops the run.  With ``--trace 1`` untraced and
traced passes alternate and the per-layer metrics of ``tracing.py`` are
reported instead of the end-to-end ones.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the full record (run
environment, deterministic counts, all metrics); ``--out FILE`` also
appends it to FILE for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import oracle
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_build"
SETUP_REPEATS = 9
TAIL_BEYOND = 10


class SetupError(Exception):
    pass


def set_up(workload: str, reference: dict, census_seed: int, work: Path):
    """Import plumbcap afresh, build the workload and write its graph files."""
    for name in [m for m in sys.modules if m == "plumbcap" or m.startswith("plumbcap.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("plumbcap.cli")
    except ImportError as exc:
        raise SetupError("cannot import plumbcap from %s: %s" % (SOURCE, exc)) from exc
    graphs = workloads.build(workload, reference, census_seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argvs = []
    for graph in graphs:
        path = work / (graph.name + ".txt")
        path.write_text(graph.text())
        argv = ["obstruct", str(path), "--json", "--no-timings"]
        argvs.append(argv + ["--all-roots"] if graph.all_roots else argv)
    return cli.cli_main, graphs, argvs


def obstruct(cli_main, argv):
    """One operation: exit code and captured stdout, or the exception."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except Exception as exc:  # a traceback is a failed graph, not a dead run
        return ("raised %r" % exc, "")
    return code, out.getvalue()


def run_pass(sampler, call, order):
    """Time one pass; returns the raw and the reference-speed latency and
    the output of every graph."""
    outputs = [None] * len(order)
    timings = [None] * len(order)
    gc.collect()
    for i in order:
        outputs[i], raw, chunks = sampler.timed(call, i)
        timings[i] = (raw, chunks)
    return [raw for raw, _ in timings], speed.at_reference_speed(timings), outputs


def check(graph: workloads.Graph, output) -> tuple[str | None, dict | None]:
    """Check one obstruct output; returns (error, per-graph summary)."""
    code, text = output
    if code != 0:
        return "%s: exit code %s" % (graph.name, code), None
    try:
        doc = json.loads(text)
        problems = _problems(graph, doc)
        summary = {"verdict": doc["verdict"], "roots": [r["root"] for r in doc["roots"]],
                   "rank": doc["dual_rank"],
                   "nodes": [r["outcome"]["nodes"] for r in doc["roots"]]}
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "%s: unreadable output (%r)" % (graph.name, exc), None
    if problems:
        return "%s: %s" % (graph.name, "; ".join(problems)), None
    return None, summary


def _problems(graph: workloads.Graph, doc: dict) -> list[str]:
    v, e = graph.vertices, graph.edges
    rank = sum(oracle.string_counts(v, e).values()) - 1
    want_roots = (oracle.admissible_roots(v, e) if graph.all_roots
                  else [oracle.canonical_root(v, e)])
    roots = [r["root"] for r in doc["roots"]]
    verdicts = [r["verdict"] for r in doc["roots"]]
    problems = []
    if roots != want_roots:
        problems.append("roots %s, expected %s" % (roots, want_roots))
    if doc["dual_rank"] != rank:
        problems.append("dual rank %s, expected %d" % (doc["dual_rank"], rank))
    if doc["gram_determinant"] != oracle.tree_determinant(v, e):
        problems.append("determinant %s" % doc["gram_determinant"])
    for result in doc["roots"]:
        root, outcome, verdict = result["root"], result["outcome"], result["verdict"]
        if not outcome["completed"]:
            problems.append("search at root %d did not complete" % root)
        elif outcome["embeddable"]:
            if verdict != workloads.INCONCLUSIVE:
                problems.append("root %d embeds but says %s" % (root, verdict))
            if not oracle.witness_embeds(oracle.dual_gram(v, e, root), outcome["witness"]):
                problems.append("witness at root %d does not verify" % root)
        elif verdict != workloads.OBSTRUCTED or "witness" in outcome:
            problems.append("root %d: no embedding but verdict %s" % (root, verdict))
    combined = workloads.OBSTRUCTED if workloads.OBSTRUCTED in verdicts else workloads.INCONCLUSIVE
    if doc["verdict"] != combined:
        problems.append("verdict %s does not combine the roots' %s" % (doc["verdict"], verdicts))
    if graph.verdict is not None and doc["verdict"] != graph.verdict:
        problems.append("verdict %s, expected %s" % (doc["verdict"], graph.verdict))
    if graph.all_roots and graph.verdict == workloads.INCONCLUSIVE and workloads.OBSTRUCTED in verdicts:
        problems.append("obstructed at a root of a space that bounds a rational ball")
    return problems


class Checker:
    """Checks every pass's outputs outside the timed region.  The first
    pass is checked in full; a later output must equal the first one."""

    def __init__(self, graphs):
        self.graphs = graphs
        self.first = None
        self.summaries = [None] * len(graphs)
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, outputs) -> None:
        self.attempted += len(outputs)
        if self.first is None:
            self.first = outputs
            for i, (graph, output) in enumerate(zip(self.graphs, outputs)):
                error, self.summaries[i] = check(graph, output)
                if error:
                    self.errors.append(error)
            return
        for graph, output, first, summary in zip(self.graphs, outputs, self.first, self.summaries):
            if output != first:
                self.errors.append("%s: output differs from the first pass" % graph.name)
            elif summary is None:
                self.errors.append("%s: failed again" % graph.name)


def deterministic_counts(graphs, summaries, frozen: dict) -> dict:
    """Counts that depend only on the inputs and the program, never on the
    clock; any difference between two runs of one commit is a defect."""
    done = {g.name: s for g, s in zip(graphs, summaries) if s is not None}
    tally = {}
    for s in done.values():
        tally[s["verdict"]] = tally.get(s["verdict"], 0) + 1
    ranks = [s["rank"] for s in done.values()]
    if not frozen:
        matches = "none"
    elif all(done.get(name) == expected for name, expected in frozen.items()):
        matches = "match"
    else:
        matches = "differs"
    return {
        "graphs": len(done),
        "verdicts": tally,
        "roots": sum(len(s["roots"]) for s in done.values()),
        "nodes": sum(sum(s["nodes"]) for s in done.values()),
        "dual_rank_max": max(ranks, default=0),
        "dual_rank_sum": sum(ranks),
        "digest": hashlib.sha256(json.dumps(done, sort_keys=True).encode()).hexdigest()[:16],
        "reference": matches,
    }


def tail(latencies: list[float]) -> tuple[float, float, str]:
    """(value, percentile, rule): the highest percentile with at least
    TAIL_BEYOND graphs beyond it, or the slowest graph when there are too
    few graphs for that percentile to reach the median."""
    ranked = sorted(latencies)
    n = len(ranked)
    if n - TAIL_BEYOND - 1 >= n // 2:
        return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, "percentile"
    return ranked[-1], 100.0, "max"


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timings(setups: list[float], passes: list[list[float]]) -> dict[str, float]:
    """End-to-end times from set-up times and per-graph latencies by pass."""
    per_graph = [statistics.median(ts) for ts in zip(*passes)]
    return {
        "wall_s": statistics.median(sum(p) for p in passes),
        "setup_s": statistics.median(setups),
        "graph_p50_ms": statistics.median(per_graph) * 1e3,
        "graph_tail_ms": tail(per_graph)[0] * 1e3,
    }


def measure(args, reference):
    work = WORK / args.workload
    with speed.Sampler() as sampler:
        setup_timings = []
        for _ in range(SETUP_REPEATS):
            (cli_main, graphs, argvs), raw, chunks = sampler.timed(
                set_up, args.workload, reference, args.census_seed, work)
            setup_timings.append((raw, chunks))

        order = list(range(len(graphs)))
        random.Random(args.seed).shuffle(order)
        checker = Checker(graphs)
        untraced = lambda i: obstruct(cli_main, argvs[i])
        raw_passes, passes, traced_passes, layers = [], [], [], []
        tracer = None
        started = perf_counter()
        while True:
            raw, scaled, outputs = run_pass(sampler, untraced, order)
            checker.add(outputs)
            raw_passes.append(raw)
            passes.append(scaled)
            if args.trace:
                tracer = tracing.Tracer()

                def traced(i):
                    tracer.request = graphs[i].name
                    return tracer.span("cli", obstruct, cli_main, argvs[i])

                tracer.install()
                try:
                    _, scaled, outputs = run_pass(sampler, traced, order)
                finally:
                    tracer.remove()
                checker.add(outputs)
                traced_passes.append(scaled)
                layers.append(tracing.layer_metrics(tracer.spans))
            spent = perf_counter() - started
            if spent + spent / len(passes) > args.seconds:
                break

    if tracer is not None:
        with open(work / "spans.jsonl", "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    metrics = timings(speed.at_reference_speed(setup_timings), passes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        metrics.update({name: statistics.median(pass_[name] for pass_ in layers)
                        for name in layers[0]})
        metrics["trace.overhead_s"] = (statistics.median(sum(p) for p in traced_passes)
                                       - metrics["wall_s"])
    _, tail_percentile, tail_rule = tail(passes[0])
    failed = len(checker.errors)
    return {
        "bench": 1,
        "workload": args.workload,
        "size": workloads.sizes(args.workload),
        "seed": args.seed,
        "census_seed": args.census_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "passes": len(passes) + len(traced_passes),
        "speed_samples": len(sampler.chunks),
        "raw": timings([raw for raw, _ in setup_timings], raw_passes),
        "attempted": checker.attempted,
        "failed": failed,
        "error_rate": failed / checker.attempted,
        "errors": checker.errors[:20],
        "tail": {"percentile": tail_percentile, "graphs": len(graphs), "rule": tail_rule},
        "counts": deterministic_counts(
            graphs, checker.summaries, workloads.frozen(args.workload, reference, args.census_seed)),
        "metrics": metrics,
    }


def declared_metrics(trace_on: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True, help="order of graphs in a pass")
    parser.add_argument("--seconds", type=float, required=True, help="time spent in passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--census-seed", type=int, default=workloads.CENSUS_SEED,
                        help="seed of the census trees; only %d has reference verdicts"
                             % workloads.CENSUS_SEED)
    parser.add_argument("--out", help="also append the full record to this file")
    args = parser.parse_args(argv)

    if not (SOURCE / "plumbcap" / "__init__.py").is_file():
        print("bench: no plumbcap package under %s" % SOURCE, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    try:
        reference = workloads.load_reference()
        units = declared_metrics(bool(args.trace))
        record = measure(args, reference)
    except (SetupError, OSError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    for error in record["errors"]:
        print("FAILED %s" % error)
    line = json.dumps(record, sort_keys=True)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
