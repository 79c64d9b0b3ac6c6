"""Read bench records and judge them against the bounds in BENCHMARK.json.

    python3 bench/compare.py steady RUNS.jsonl
    python3 bench/compare.py diff BASE.jsonl NEW.jsonl

A records file holds the record lines that ``run.py --out`` appends, or a
saved copy of run.py's stdout; other lines are skipped.  Timings and
deterministic counts are judged apart.

``steady`` prints, per workload and end-to-end metric, the median of the
runs and their spread: the distance between the first and third quartile
as a share of the median.  It fails when a spread (other than setup_s's)
exceeds the metric's bound, when a run failed a check, or when the
deterministic counts differ at all between runs.

``diff`` prints each metric's median change per workload.  A change worse
than the bound is flagged WORSE; when either side's spread is wider than
the bound and the runs do not separate cleanly, the metric is UNRESOLVED.
Changed node counts are reported; it fails when a metric is WORSE, a run
failed a check, or a verdict tally, root count or dual rank changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """Records by (workload, trace)."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("bench") == 1:
            runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median; None for one run."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")


def _values(records, name):
    return [r["metrics"][name] for r in records if name in r["metrics"]]


def _failures(records) -> list[str]:
    return ["seed %s failed %d checks: %s" % (r["seed"], r["failed"], r["errors"][:3])
            for r in records if r["failed"]]


def _counts_problems(records) -> list[str]:
    problems = _failures(records)
    first = records[0]["counts"]
    for r in records[1:]:
        if r["counts"] != first:
            problems.append("counts differ: seed %s %s, seed %s %s"
                            % (records[0]["seed"], first, r["seed"], r["counts"]))
    if first["reference"] == "differs":
        problems.append("node counts differ from reference.json")
    return problems


def steady(path: str) -> int:
    ok = True
    for (workload, traced), records in sorted(load(path).items()):
        print("%s%s: %d runs" % (workload, " (traced)" if traced else "", len(records)))
        metrics = LAYERS if traced else BOUNDS
        for name, spec in metrics.items():
            values = _values(records, name)
            if not values:
                continue
            s = spread(values)
            note = ""
            if "bound" in spec and s is not None:
                note = "bound %.3f" % spec["bound"]
                if s > spec["bound"] and name != "setup_s":
                    note += "  TOO WIDE"
                    ok = False
                elif s > spec["bound"] / 3:
                    note += "  above a third of the bound"
            print("  %-24s median %-14.6g spread %-8s %s" % (
                name, statistics.median(values), "-" if s is None else "%.4f" % s, note))
        for problem in _counts_problems(records):
            print("  " + problem)
            ok = False
    return 0 if ok else 1


def _worse(spec, base, new) -> float:
    """Relative change, positive when ``new`` is worse than ``base``."""
    change = (new - base) / abs(base) if base else 0.0
    return change if spec["better"] == "lower" else -change


def diff(base_path: str, new_path: str) -> int:
    base_runs, new_runs = load(base_path), load(new_path)
    ok = True
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, traced = key
        base, new = base_runs[key], new_runs[key]
        print("%s%s: %d base runs, %d new runs" % (
            workload, " (traced)" if traced else "", len(base), len(new)))
        for name, spec in (LAYERS if traced else BOUNDS).items():
            b, n = _values(base, name), _values(new, name)
            if not b or not n:
                continue
            worse = _worse(spec, statistics.median(b), statistics.median(n))
            status = ""
            if "bound" in spec:
                spreads = [spread(b), spread(n)]
                separated = all(_worse(spec, x, y) < 0 for x in b for y in n)
                if worse > spec["bound"]:
                    status = "WORSE"
                    ok = False
                elif (None in spreads or max(spreads) > spec["bound"]) and not separated:
                    status = "UNRESOLVED"
            print("  %-24s %-14.6g -> %-14.6g worse by %+7.2f%% %s" % (
                name, statistics.median(b), statistics.median(n), 100 * worse, status))
        for problem in _failures(new):
            print("  " + problem)
            ok = False
        before, after = base[0]["counts"], new[0]["counts"]
        for field in sorted(set(before) | set(after)):
            if before.get(field) != after.get(field):
                # Node counts may change with the enumeration order; the
                # answers themselves may not.
                answer = field not in ("nodes", "digest", "reference")
                print("  %s %s: %s -> %s" % ("ANSWER CHANGED" if answer else "count changed",
                                             field, before.get(field), after.get(field)))
                ok = ok and not answer
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "steady":
        return steady(argv[1])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
