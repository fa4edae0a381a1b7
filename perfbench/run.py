#!/usr/bin/env python3
"""The oddtrace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process, single-threaded, as a
closed loop with one client: each task starts when the previous one has
returned.  Tasks call `oddtrace.cli.main` with generated arguments or the
`FracPowerSeries` ring on generated JSON series; every result is checked
by oracle.py, which does not use oddtrace.

--trace 0 measures the end-to-end metrics with nothing wrapped.  Passes of
the workload's fixed task list repeat, with fresh seeded inputs, until the
next pass would end after S seconds.  Times are given in reference
seconds, scaled by the host speed sampled all through the run
(hostspeed.py); the cold starts behind setup_s are spread over the run and
take their own samples.

--trace 1 runs the first pass alternately plain and with a span around
every public oddtrace function (tracer.py), and reports the per-layer
metrics of the traced pass with the median time, plus the overhead ratio.
Counts must repeat exactly between traced passes.

Metric names and units come from BENCHMARK.json at the repository root.
The last line of standard output is the result as one JSON object; a run
record with the inputs, input properties and raw timings is written under
perfbench/runs/ (or to --record).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed, timed_kernel  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, InputLog  # noqa: E402

SETUP_PROBES = 9          # cold starts per run; setup_s is their median
SETUP_SAMPLES = 3         # host-speed samples before and after the work of a cold start
MIN_TRACED_PASSES = 2     # traced passes compared for exact counts
HARD_STOP_S = 120         # no new pass starts after this, whatever --seconds says
COUNT_METRICS = (
    "qseries.euler_product.calls", "qseries.euler_product.redundant_ratio",
    "qseries.mul.calls", "qseries.mul.term_pairs", "qseries.invert.calls",
    "qseries.max_coeff_bits", "characters.resolve_signs.calls", "pbw.monomials",
    "pbw.fermion_odd_trace.redundant_ratio", "queer.queer_mul.calls",
    "modcheck.eval_series.calls", "modcheck.terms_evaluated", "cli.report_bytes",
)


def load_program():
    """Import oddtrace from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import oddtrace
        import oddtrace.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import oddtrace from {src}: {exc}")
    if Path(oddtrace.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported oddtrace from {oddtrace.__file__}, not {src}")
    return oddtrace


class Runner:
    """Runs tasks and checks their results."""

    def __init__(self, oddtrace):
        self.cli = oddtrace.cli
        self.series = oddtrace.FracPowerSeries
        self.next_task = 0

    def run_task(self, task):
        """(start, end, exit code, output, error text or None)."""
        if task.argv is not None:
            return self._run_cli(list(task.argv))
        return self._run_ring(task)

    def _run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code, error = None, traceback.format_exc(limit=3)
            t1 = perf_counter()
        return t0, t1, code, out.getvalue(), error

    def _run_ring(self, task):
        series = self.series
        result = None
        error = None
        t0 = perf_counter()
        try:
            xs = [series.from_json_dict(o) for o in task.operands]
            if task.op == "mul":
                result = (xs[0] * xs[1]).to_json_dict()
            elif task.op == "add":
                result = (xs[0] + xs[1]).to_json_dict()
            elif task.op == "pow":
                result = (xs[0] ** task.arg).to_json_dict()
            elif task.op == "invert":
                result = xs[0].invert().to_json_dict()
            else:
                result = xs[0].first_mismatch(xs[1], task.arg)
        except Exception:
            error = traceback.format_exc(limit=3)
        t1 = perf_counter()
        if task.op == "first_mismatch" and error is None and result is not None:
            result = [[x.numerator, x.denominator] for x in result]
        return t0, t1, 0, result, error

    def run_pass(self, rounds, tracer=None, between=None):
        """Run every task of a pass, calling `between` before each;
        (wall s, [(task, latency, code, output, error, start)])."""
        results = []
        start = perf_counter()
        for tasks in rounds:
            for task in tasks:
                if between is not None:
                    between()
                # a task starts with no garbage of the tasks before it, as
                # one command in a fresh process would
                gc.collect()
                close = tracer.root(self.next_task, task.kind) if tracer else None
                begin, end, code, output, error = self.run_task(task)
                if close:
                    close()
                self.next_task += 1
                results.append((task, end - begin, code, output, error, begin))
        return perf_counter() - start, results


def check(task, code, output, error):
    if error is not None:
        return [error.strip().splitlines()[-1]]
    try:
        if task.argv is not None:
            return oracle.check_cli(task.kind, task.params, code, output)
        return oracle.check_ring(task, output)
    except Exception as exc:  # the oracle could not read the output
        return [f"unreadable output: {exc!r}"]


class Tally:
    """Attempted and failed tasks, failure messages and the self-test."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.selftest = {}

    def add(self, results, selftest=False):
        for task, _latency, code, output, error, _start in results:
            problems = check(task, code, output, error)
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"task": task.kind, "input": task.argv or task.key,
                                          "problems": problems})
            elif selftest and task.kind not in self.selftest:
                # one corrupted value must turn a correct output into a failure
                bad_code, bad_output = oracle.corrupt(code, output)
                self.selftest[task.kind] = bool(check(task, bad_code, bad_output, None))

    @property
    def selftest_ok(self):
        return bool(self.selftest) and all(self.selftest.values())


class SetupProbes:
    """Cold starts that import oddtrace and generate the first pass, spread
    evenly over the run, so that their median sees the host as the whole
    run does, not as it was in one moment."""

    def __init__(self, workload, seed, seconds):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.every = seconds / SETUP_PROBES
        self.start = perf_counter()
        self.times = []      # reference seconds
        self.measured = []   # seconds as measured

    def due(self):
        return (len(self.times) < SETUP_PROBES
                and perf_counter() - self.start >= len(self.times) * self.every)

    def probe(self):
        t0 = perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed: {proc.stderr.strip()}")
        samples = json.loads(proc.stdout.strip().splitlines()[-1])
        measured = wall - sum(samples)
        self.measured.append(measured)
        self.times.append(measured * REFERENCE_S / statistics.median(samples))


def setup_probe(workload, seed):
    """One cold start, in its own process: import oddtrace and generate the
    first pass, between host-speed samples taken in this process, so on
    the core it runs on.  Prints the samples' times as a JSON list."""
    samples = [timed_kernel() for _ in range(SETUP_SAMPLES)]
    load_program()
    WORKLOADS[workload](seed).make_pass()
    samples += [timed_kernel() for _ in range(SETUP_SAMPLES)]
    print(json.dumps(samples))
    return 0


def tail(latencies, pct):
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return value, sum(x > value for x in latencies)


def measure(runner, workload, seed, seconds, tally, log):
    """Untraced passes; returns the end-to-end metrics and raw timings.
    The host speed is sampled all along (hostspeed.py), and cold starts
    are timed between tasks when due.  Task latencies, less the samples
    taken inside them, are scaled to reference seconds once the last pass
    has ended, when the samples after every task are in."""
    setup = SetupProbes(workload.name, seed, seconds)
    passes = []
    with HostSpeed() as speed:

        def between():
            if setup.due():
                with speed.paused():
                    setup.probe()

        start = perf_counter()
        while True:
            rounds = workload.make_pass()
            began = perf_counter()
            _, results = runner.run_pass(rounds, between=between)
            took = perf_counter() - began
            tally.add(results, selftest=not passes)
            log.add(rounds)
            passes.append([(task.kind, latency, begin) for task, latency, *_, begin in results])
            elapsed = perf_counter() - start
            if len(passes) >= workload.min_passes and (
                    elapsed + took > seconds or elapsed > HARD_STOP_S):
                break
        with speed.paused():
            while len(setup.times) < SETUP_PROBES:
                setup.probe()
    scaled = []  # per pass: (kind, reference s, measured s) of each task
    for tasks in passes:
        scaled.append([])
        for kind, latency, begin in tasks:
            end = begin + latency
            net = latency - speed.sampled(begin, end)
            scaled[-1].append((kind, net * speed.factor(begin, end), net))
    walls = [sum(t[1] for t in tasks) for tasks in scaled]
    latencies = [t[1] for tasks in scaled for t in tasks]
    by_kind = {}
    for kind, latency, _ in (t for tasks in scaled for t in tasks):
        by_kind.setdefault(kind, []).append(latency)
    measured = [t[2] for tasks in scaled for t in tasks]
    tail_s, beyond = tail(latencies, workload.tail_pct)
    values = {
        "wall_s": statistics.fmean(walls),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": statistics.median(setup.times),
    }
    raw = {
        "setup_probes_s": setup.times,
        "measured_setup_probes_s": setup.measured,
        "pass_wall_s": walls,
        "measured_pass_wall_s": [sum(t[2] for t in tasks) for tasks in scaled],
        "measured_task_p50_ms": statistics.median(measured) * 1e3,
        "measured_task_tail_ms": tail(measured, workload.tail_pct)[0] * 1e3,
        "host_speed_samples": [[t0 - start, t1 - t0] for t0, t1 in zip(speed.starts, speed.ends)],
        "task_timeline": [[kind, begin - start, latency]
                          for tasks in passes for kind, latency, begin in tasks],
        "tasks": len(latencies),
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": beyond,
        "fail_ratio": tally.failed / tally.attempted,
        "median_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())},
    }
    return values, raw


def trace(runner, oddtrace, workload, seconds, tally, log):
    """Plain and traced runs of the first pass, alternating."""
    rounds = workload.make_pass()
    log.add(rounds)
    plain, traced = [], []
    start = perf_counter()
    while True:
        wall, results = runner.run_pass(rounds)
        tally.add(results, selftest=not plain)
        plain.append(wall)
        tracer = Tracer(oddtrace)
        tracer.install()
        try:
            wall, results = runner.run_pass(rounds, tracer)
        finally:
            tracer.uninstall()
        tally.add(results)
        traced.append((wall, tracer))
        elapsed = perf_counter() - start
        if len(traced) >= MIN_TRACED_PASSES and (
                elapsed + plain[-1] + wall > seconds or elapsed > HARD_STOP_S):
            break
    layer = [layer_values(t, wall) for wall, t in traced]
    overhead = statistics.median(w for w, _ in traced) / statistics.median(plain)
    chosen = sorted(range(len(traced)), key=lambda i: traced[i][0])[(len(traced) - 1) // 2]
    values = dict(layer[chosen], **{"trace.overhead_ratio": overhead})
    repeats = all(all(lv[m] == layer[0][m] for m in COUNT_METRICS) for lv in layer)
    raw = {
        "plain_wall_s": plain,
        "traced_wall_s": [w for w, _ in traced],
        "reported_pass": chosen,
        "counts_repeat": repeats,
        "per_pass": layer,
        "layer_share_of_wall": {k[:-len(".self_s")]: v / values["trace.wall_s"]
                                for k, v in values.items()
                                if k.count(".") == 1 and k.endswith(".self_s")},
    }
    return values, raw, [t for _, t in traced]


def layer_values(tracer, wall):
    m = tracer.layer_metrics()
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m.update({
        "qseries.euler_product.redundant_ratio": ratio(
            c["qseries.euler_product.repeats"], m["qseries.euler_product.calls"]),
        "pbw.fermion_odd_trace.redundant_ratio": ratio(
            c["pbw.fermion_odd_trace.repeats"], m["pbw.fermion_odd_trace.calls"]),
        "qseries.mul.term_pairs": c["qseries.mul.term_pairs"],
        "qseries.max_coeff_bits": c["qseries.max_coeff_bits"],
        "pbw.monomials": c["pbw.monomials"],
        "pbw.monomials_per_s": ratio(c["pbw.monomials"], m["pbw.enumerate.self_s"]),
        "modcheck.terms_evaluated": c["modcheck.terms_evaluated"],
        "cli.report_bytes": c["cli.report_bytes"],
        "trace.wall_s": wall,
    })
    return m


def write_record(path, record, tracers):
    """The run record, and for a traced run every span as one JSON array per
    line (gzip), after a header line that names the fields."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracers:
        with gzip.open(path.with_suffix(".spans.jsonl.gz"), "wt") as fh:
            fh.write(json.dumps(["pass", "id", "name", "start", "end", "cover_start",
                                 "cover_end", "parent", "task"]) + "\n")
            for index, tracer in enumerate(tracers):
                for span in tracer.spans:
                    fh.write(json.dumps([index, *span]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="where to write the run record (default: perfbench/runs/)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    oddtrace = load_program()
    workload = WORKLOADS[args.workload](args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(oddtrace)
    tally = Tally()
    log = InputLog(workload)
    started = time.time()
    if args.trace:
        values, raw, tracers = trace(runner, oddtrace, workload, args.seconds, tally, log)
    else:
        values, raw = measure(runner, workload, args.seed, args.seconds, tally, log)
        tracers = []
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = (tally.failed == 0 and tally.selftest_ok
               and raw.get("counts_repeat", True))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, "python": platform.python_version(),
        "machine": platform.machine(), "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "selftest": tally.selftest, "metrics": metrics, **raw,
        "input_properties": log.properties(),
        "inputs": log.inputs,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    path = args.record or HERE / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"
    write_record(path, record, tracers)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {tally.attempted} tasks, {tally.failed} failed "
          f"(fail_ratio {tally.failed / tally.attempted:g}), self-test "
          f"{sum(tally.selftest.values())}/{len(tally.selftest)} corruptions caught")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  task_tail_ms is p{raw['tail_percentile']} of {raw['tasks']} tasks "
              f"({raw['tail_samples_beyond']} beyond)")
        print(f"  times are in reference seconds; as measured: wall_s "
              f"{statistics.fmean(raw['measured_pass_wall_s']):.6g}, task_p50_ms "
              f"{raw['measured_task_p50_ms']:.6g}, task_tail_ms {raw['measured_task_tail_ms']:.6g}, "
              f"setup_s {statistics.median(raw['measured_setup_probes_s']):.6g}")
    print(f"  inputs: {json.dumps(record['input_properties'])}")
    for failure in tally.failures[:3]:
        print(f"  FAILED {failure['task']} {failure['input']}: {failure['problems'][:2]}")
    print(f"  record: {path}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
