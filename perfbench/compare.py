#!/usr/bin/env python3
"""Compare benchmark runs of two commits.

Run pairs, alternating which side goes first, then report:

    python3 perfbench/compare.py run --parent A --change B --workload closed-form \\
        --pairs 10 --seed 100 --out RESULTS
    python3 perfbench/compare.py report RESULTS

A and B are checkouts of the two commits; each runs its own perfbench/run.py,
which must be identical on both sides.  RESULTS gets one run record per run
(parent/ and change/) and pairs.json, which lists the pairs in the order
they ran.  With --trace, traced runs are made too and their exact counts are
compared.

For each workload and end-to-end metric the report prints each side's
median and quartiles and one verdict:

* regressed   - the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json;
* unresolved  - the run-to-run spread (quartile distance over median) of
                either side is wider than the bound, unless every change
                run beats every parent run;
* gain        - over at least 10 pairs, the change wins at least 9 in 10
                (ties count for neither side) and the medians differ by
                more than the distance between the parent's quartiles;
* same        - none of these.

There is no combined score.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import COUNT_METRICS

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def bench_digest(checkout):
    h = hashlib.sha256()
    for path in sorted((checkout / "perfbench").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def cmd_run(args):
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len({bench_digest(c) for c in checkouts.values()}) != 1:
        raise SystemExit("compare: the two checkouts have different perfbench code")
    out = args.out.resolve()
    index_path = out / "pairs.json"
    pairs = json.loads(index_path.read_text()) if index_path.exists() else []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for trace in ((0, 1) if args.trace else (0,)):
            entry = {"workload": args.workload, "seed": seed, "trace": trace,
                     "first": order[0]}
            for side in order:
                record = out / side / f"{args.workload}-s{seed}-t{trace}.json"
                cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--record", str(record)]
                proc = subprocess.run(cmd, cwd=checkouts[side], capture_output=True,
                                      text=True, timeout=600)
                if proc.returncode != 0:
                    raise SystemExit(f"compare: {side} run failed:\n{proc.stderr}")
                print(f"pair {i} trace={trace} {side}: {proc.stdout.splitlines()[0]}")
                entry[side] = str(record.relative_to(out))
            pairs.append(entry)
            index_path.write_text(json.dumps(pairs, indent=1) + "\n")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, lower_better, pairs):
    """One of regressed / unresolved / gain / same for two lists of values."""
    sign = 1 if lower_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "regressed"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    wins = sum(sign * c < sign * p for p, c in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return "gain"
    return "same"


def cmd_report(args):
    out = args.results.resolve()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    pairs = json.loads((out / "pairs.json").read_text())
    load = {}
    for entry in pairs:
        for side in SIDES:
            load[entry[side]] = json.loads((out / entry[side]).read_text())
    bad = [(e[s], load[e[s]]["failed"]) for e in pairs for s in SIDES
           if not load[e[s]]["correct"]]
    for name, failed in bad:
        print(f"warning: {name} was not correct ({failed} failed tasks)")
    for workload in sorted({e["workload"] for e in pairs}):
        plain = [e for e in pairs if e["workload"] == workload and e["trace"] == 0]
        print(f"\n{workload}: {len(plain)} pairs")
        if any(e["first"] == plain[i - 1]["first"] for i, e in enumerate(plain) if i):
            print("  warning: the pairs did not alternate which side ran first")
        print(f"  {'metric':14s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
              f"  bound  wins  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            values = {s: [load[e[s]]["metrics"][name]["value"] for e in plain] for s in SIDES}
            pairs_v = list(zip(values["parent"], values["change"]))
            lower = m["better"] == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in pairs_v)
            cells = []
            for s in SIDES:
                q1, q2, q3 = quartiles(values[s])
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] {m['unit']}")
            print(f"  {name:14s} {cells[0]:>34s} {cells[1]:>34s}  {m['bound']:5.2f} "
                  f"{wins:2d}/{len(pairs_v):<2d} "
                  f"{verdict(values['parent'], values['change'], m['bound'], lower, pairs_v)}")
        traced = [e for e in pairs if e["workload"] == workload and e["trace"] == 1]
        if traced:
            report_counts(traced, load)


def report_counts(traced, load):
    """Exact counts of traced runs: the same seed must give the same counts
    on one side; differences between the sides are listed as counts."""
    print("  counts (traced runs, by seed):")
    for entry in traced:
        sides = {s: load[entry[s]]["metrics"] for s in SIDES}
        diff = {n: (sides["parent"][n]["value"], sides["change"][n]["value"])
                for n in COUNT_METRICS if sides["parent"][n]["value"] != sides["change"][n]["value"]}
        repeat = all(load[entry[s]].get("counts_repeat") for s in SIDES)
        print(f"    seed {entry['seed']}: repeat within runs {'yes' if repeat else 'NO'}; "
              f"{'no count differs' if not diff else 'parent -> change ' + json.dumps(diff)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run alternating pairs of parent and change")
    run.add_argument("--parent", type=Path, required=True)
    run.add_argument("--change", type=Path, required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1000)
    run.add_argument("--seconds", type=int,
                     default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    run.add_argument("--trace", action="store_true", help="also make traced runs")
    run.add_argument("--out", type=Path, required=True)
    report = sub.add_parser("report", help="print medians, quartiles and verdicts")
    report.add_argument("results", type=Path)
    args = parser.parse_args(argv)
    (cmd_run if args.cmd == "run" else cmd_report)(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
