"""The three workloads: seeded task lists for the closed-form route, the
brute-force route and library ring arithmetic.

A workload hands out passes, each a fixed list of rounds of tasks.  The
random stream is consumed pass by pass, so a seed always yields the same
passes in the same order however many of them a run gets through.
Problem sizes get small seeded jitter, or are stratified with one round per
size band in every pass, so that the cost of a pass barely depends on the
seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import (PARTITIONS, admissible, eta3_terms, eta_terms, inverse_eta_terms,
                    pentagonal, write_series)

F = Fraction


@dataclass
class Task:
    """One call into oddtrace: a CLI command (`argv`) or a ring operation
    (`op` on JSON `operands`).  `key` names the input a program could reuse
    between tasks; `params` and `expect` are for the oracle only."""

    kind: str
    key: tuple
    argv: list = None
    params: dict = field(default_factory=dict)
    op: str = None
    operands: list = None
    arg: object = None
    expect: dict = None
    operand_props: list = field(default_factory=list)


def _cli(kind, key, *args, **params):
    return Task(kind, key, argv=[kind, *args], params=params)


class Workload:
    name = ""
    min_passes = 1
    tail_pct = 90

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")

    def make_pass(self):
        """The next pass: a list of rounds, each a list of tasks."""
        raise NotImplementedError

    def describe(self, task):
        """The generated input of a task, for the run record."""
        return task.argv


class ClosedForm(Workload):
    """Rounds of jacobi-verify, bgg, resolve-signs, eta3 and modcheck at one
    seeded order N (bgg and resolve-signs at N + 1/8).  Exercises the
    q-series kernels; the five commands of a round share N, so removing
    recomputation shows here.  A pass is one round.  N stays within a narrow
    band, and no N repeats until the band is used up, so that a cache kept
    between rounds does not hit."""

    name = "closed-form"
    band = range(342, 359)
    min_passes = 7
    tail_pct = 70  # the middle of the modcheck tasks; bgg is the top 20%

    def __init__(self, seed):
        super().__init__(seed)
        self.used = set()

    def make_pass(self):
        free = [m for m in self.band if m not in self.used]
        n = self.rng.choice(free or list(self.band))
        self.used.add(n)
        # the S-check region: Re tau in (-1/2, 1/2], Im tau >= 0.8
        tau = f"--tau={self.rng.uniform(-0.45, 0.45):.3f},{self.rng.uniform(0.8, 1.2):.3f}"
        half = f"{8 * n + 1}/8"
        key = ("order", n)
        return [[
            _cli("jacobi-verify", key, "--order", str(n), order=F(n)),
            _cli("bgg", key, "--order", half, order=F(8 * n + 1, 8)),
            _cli("resolve-signs", key, "--order", half, order=F(8 * n + 1, 8)),
            _cli("eta3", key, "--order", str(n), order=F(n)),
            _cli("modcheck", key, "--order", str(n), tau, order=F(n)),
        ]]


class BruteForce(Workload):
    """Rounds of fermion-trace, cancellation, queer-check and a spectrum
    command for each of the 21 admissible pairs, in seeded order.
    Exercises PBW enumeration and the queer superalgebra; the q-series
    layer takes under 1%, so a q-series change should not move it.  The
    cheap spectrum commands make up most tasks, so the median task shows
    per-command overhead and the tail shows the PBW work.  The pairs' costs
    differ by a factor of two, so every round runs all of them: with a
    seeded sample of pairs, or fewer spectrum tasks, the median task moved
    from run to run."""

    name = "brute-force"
    fermion_bands = ((32, 33), (34,), (35, 36))
    cancellation_levels = (23, 24, 25)
    pairs = [(p, pp) for p in range(2, 8) for pp in range(p + 1, 17) if admissible(p, pp)]
    min_passes = 3
    tail_pct = 94  # the middle of the cancellation tasks (level 24)

    def make_pass(self):
        fermion = [self.rng.choice(band) for band in self.fermion_bands]
        cancellation = list(self.cancellation_levels)
        self.rng.shuffle(fermion)
        self.rng.shuffle(cancellation)
        rounds = []
        for lf, lc in zip(fermion, cancellation):
            tasks = [
                _cli("fermion-trace", ("fermion-trace", lf), "--level", str(lf), level=lf),
                _cli("cancellation", ("cancellation", lc), "--level", str(lc), level=lc),
                _cli("queer-check", ("queer-check",)),
            ]
            for p, pp in self.rng.sample(self.pairs, len(self.pairs)):
                tasks.append(_cli("spectrum", ("spectrum", p, pp), "--p", str(p),
                                  "--pp", str(pp), p=p, pp=pp))
            rounds.append(tasks)
        return rounds


_props = namedtuple("Operand", "dense rational denominator")


class SeriesRing(Workload):
    """Library arithmetic on JSON operands written by the benchmark:
    lacunary (eta, Jacobi) and dense (partition, seeded rational) series on
    grids D in {1, 8, 24}.  No euler_product runs: this shows what a
    change to the ring kernels does to sparse products and to rational
    coefficients as they grow."""

    name = "series-ring"
    min_passes = 20
    tail_pct = 95

    @staticmethod
    def _eta(n):
        t = n + F(1, 24)
        return write_series(24, t, eta_terms(t)), _props(False, False, 24)

    @staticmethod
    def _partition(n, denominator=1, bump=None):
        terms = dict(enumerate(PARTITIONS.upto(n)))
        if bump:
            terms[bump[0]] += bump[1]
        return write_series(denominator, n, terms), _props(True, False, denominator)

    @staticmethod
    def _inverse_eta(n):
        t = n - F(1, 24)
        return write_series(24, t, inverse_eta_terms(t)), _props(True, False, 24)

    def _rational(self, denominator, length, unit=None):
        terms = {F(k, denominator): F(self.rng.choice((-1, 1)) * self.rng.randint(1, 9),
                                      self.rng.randint(1, 6))
                 for k in range(length)}
        if unit is not None:
            terms[F(0)] = unit
        return (write_series(denominator, F(length, denominator), terms),
                _props(True, True, denominator))

    def _task(self, name, op, operands, arg=None, **expect):
        return Task(f"ring.{name}", (name, _digest([o for o, _ in operands])), op=op,
                    operands=[o for o, _ in operands], arg=arg, expect=expect,
                    operand_props=[p for _, p in operands])

    def make_pass(self):
        rng = self.rng
        tasks = []
        n = rng.randint(300, 450)
        tasks.append(self._task("invert-lacunary", "invert", [self._eta(n)], kind="closed",
                                terms=inverse_eta_terms, truncation=n - F(1, 24)))
        n = rng.randint(300, 450)
        tasks.append(self._task("invert-dense", "invert", [self._partition(n)], kind="closed",
                                terms=lambda t: {F(m): F(c) for m, c in pentagonal(t).items()},
                                truncation=F(n)))
        n = rng.randint(400, 600)
        tasks.append(self._task("pow-lacunary", "pow", [self._eta(n)], 3, kind="closed",
                                terms=eta3_terms, truncation=n + F(1, 8)))
        n = rng.randint(300, 450)
        tasks.append(self._task("mul-lacunary-dense", "mul", [self._eta(n), self._inverse_eta(n)],
                                kind="closed", terms=lambda t: {F(0): F(1)}, truncation=F(n)))
        n = rng.randint(150, 200)
        tasks.append(self._task("mul-dense-int", "mul", [self._partition(n), self._partition(n)],
                                kind="product"))
        x = rng.randint(10, 14)
        tasks.append(self._task("mul-dense-rational", "mul",
                                [self._rational(8, 8 * x), self._rational(24, 24 * x)],
                                kind="product"))
        n = rng.randint(100, 140)
        tasks.append(self._task("pow-dense-rational", "pow", [self._rational(1, n)], 2,
                                kind="product", factors=2))
        n = rng.randint(90, 130)
        unit = F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4))
        tasks.append(self._task("invert-rational", "invert", [self._rational(1, n, unit)],
                                kind="inverse"))
        x = rng.randint(20, 30)
        jac = write_series(8, x + F(1, 8), eta3_terms(x + F(1, 8))), _props(False, False, 8)
        tasks.append(self._task("add-mixed", "add", [jac, self._rational(24, 24 * x)],
                                kind="sum"))
        n = rng.randint(3000, 6000)
        tasks.append(self._compare_lacunary(n))
        n = rng.randint(300, 450)
        m = rng.randint(n // 2, n - 1)
        delta = rng.choice((-2, -1, 1, 2))
        p = PARTITIONS.upto(n)[m]
        tasks.append(self._task("compare-dense", "first_mismatch",
                                [self._partition(n), self._partition(n, 24, (m, delta))],
                                F(n), kind="mismatch", value=_triple(F(m), p, p + delta)))
        rng.shuffle(tasks)
        return [tasks]

    def _compare_lacunary(self, n):
        t = n + F(1, 8)
        exact = eta3_terms(t)
        e = self.rng.choice(sorted(exact)[len(exact) // 2:])
        delta = self.rng.choice((-2, -1, 1, 2))
        bumped = dict(exact)
        bumped[e] += delta
        return self._task("compare-lacunary", "first_mismatch",
                          [(write_series(24, t, exact), _props(False, False, 24)),
                           (write_series(8, t, bumped), _props(False, False, 8))],
                          F(n), kind="mismatch", value=_triple(e, exact[e], exact[e] + delta))

    def describe(self, task):
        sizes = [len(o["terms"]) for o in task.operands]
        return {"op": task.op, "kind": task.kind, "terms": sizes,
                "arg": str(task.arg) if task.arg is not None else None,
                "operands_sha256": task.key[1]}


def _triple(e, a, b):
    return [[F(x).numerator, F(x).denominator] for x in (e, a, b)]


def _digest(objs):
    return hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()[:16]


WORKLOADS = {w.name: w for w in (ClosedForm, BruteForce, SeriesRing)}


class InputLog:
    """The inputs of the passes run, kept as descriptions so that the run
    does not hold every operand in memory."""

    def __init__(self, workload):
        self.workload = workload
        self.inputs = []   # per pass, per round: the described tasks
        self.rounds = []   # per round: (key, operands) of each task

    def add(self, rounds):
        self.inputs.append([[self.workload.describe(t) for t in r] for r in rounds])
        self.rounds.extend([(t.key, tuple(t.operand_props)) for t in r] for r in rounds)

    def properties(self):
        """Shares that a later gain may depend on, measured on the tasks run."""
        tasks = [t for r in self.rounds for t in r]
        seen_run = set()
        in_round = in_run = 0
        for r in self.rounds:
            seen_round = set()
            for key, _ in r:
                in_round += key in seen_round
                in_run += key in seen_run
                seen_round.add(key)
                seen_run.add(key)
        props = {
            "tasks": len(tasks),
            "tasks_per_round": len(self.rounds[0]),
            "share_repeat_key_in_round": in_round / len(tasks),
            "share_repeat_key_in_run": in_run / len(tasks),
        }
        operands = [o for _, ops in tasks for o in ops]
        if operands:
            props["operands"] = len(operands)
            props["share_dense_operands"] = sum(o.dense for o in operands) / len(operands)
            props["share_rational_operands"] = sum(o.rational for o in operands) / len(operands)
            props["grids"] = sorted({o.denominator for o in operands})
        return props
