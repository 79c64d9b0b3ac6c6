"""Write reference.json from the plumbcap under src/.

    python3 bench/freeze_reference.py

Runs every graph of every workload once, through the operation and the
checks that run.py uses, and stores each graph's verdict, roots, dual rank
and node counts.  It writes nothing unless every check passes, gamma-n
reproduces the published node counts below, and no lens space is
obstructed.  Run it only when a change to the embedder is meant to change
node counts, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

# tests/data/gamma_family_verdicts.json for n = 2..6, and the baseline
# table of the project roadmap for n = 7, 9 and 12.
GAMMA_NODES = {2: 1751, 3: 32245, 4: 84590, 5: 165086, 6: 173209,
               7: 332833, 9: 909784, 12: 3231205}


def summarize(cli_main, graph: workloads.Graph, path) -> dict:
    """Run and check one graph; raise SystemExit on a failed check."""
    path.write_text(graph.text())
    argv = ["obstruct", str(path), "--json", "--no-timings"]
    error, summary = run.check(graph, run.obstruct(
        cli_main, argv + ["--all-roots"] if graph.all_roots else argv))
    if error:
        raise SystemExit("bench: %s" % error)
    return summary


def main() -> int:
    sys.path.insert(0, str(run.SOURCE))
    reference = {}
    for workload in workloads.NAMES:
        work = run.WORK / workload
        cli_main, graphs, _ = run.set_up(workload, {}, workloads.CENSUS_SEED, work)
        reference[workload] = {g.name: summarize(cli_main, g, work / (g.name + ".txt"))
                               for g in graphs}
        print(workload, workloads.sizes(workload), len(graphs), "graphs", flush=True)

    # The baseline reaches beyond the gamma workload's range, so the graphs
    # past it are run here once.
    for n, nodes in GAMMA_NODES.items():
        graph = workloads.Graph("gamma-%d" % n, *workloads.gamma_n(n))
        summary = reference["gamma"].get(graph.name) or summarize(
            cli_main, graph, run.WORK / (graph.name + ".txt"))
        if summary["nodes"] != [nodes]:
            print("bench: gamma-%d explored %s nodes, expected %d" % (n, summary["nodes"], nodes),
                  file=sys.stderr)
            return 1
    # One graph per line, so a re-freeze diffs graph by graph.
    workload_blocks = []
    for workload, results in sorted(reference.items()):
        lines = ["%s: %s" % (json.dumps(name), json.dumps(summary, sort_keys=True))
                 for name, summary in sorted(results.items())]
        workload_blocks.append("%s: {\n%s\n}" % (json.dumps(workload), ",\n".join(lines)))
    workloads.REFERENCE_PATH.write_text("{\n%s\n}\n" % ",\n".join(workload_blocks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
