"""Expected results computed without oddtrace.

Every check here works from closed formulas (pentagonal numbers, Jacobi's
coefficients 4n+1, the partition recurrence, the N=1 minimal-model
formulas) or from a plain integer convolution written for this benchmark.
Reports are read only through their "pass" flags and the series
interchange format of the README
(``{"denominator": D, "truncation": [n, d], "terms": [[k, cn, cd], ...]}``),
plus the few fields named in ``check_cli``, so a change of report layout
alone does not fail a task.

A check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from math import ceil, gcd, lcm

F = Fraction
SERIES_KEYS = {"denominator", "truncation", "terms"}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def pentagonal(order):
    """{m: coefficient of q^m in prod_{n>=1} (1 - q^n)} for 0 <= m < order."""
    out = {}
    k = 0
    while k * (3 * k - 1) // 2 < order:
        for j in ((k, -k) if k else (0,)):
            m = j * (3 * j - 1) // 2
            if m < order:
                out[m] = -1 if j % 2 else 1
        k += 1
    return out


class Partitions:
    """p(0), p(1), ... by Euler's pentagonal recurrence, grown on demand."""

    def __init__(self):
        self.values = [1]

    def upto(self, n):
        p = self.values
        for m in range(len(p), n):
            s = 0
            k = 1
            while k * (3 * k - 1) // 2 <= m:
                sign = 1 if k % 2 else -1
                s += sign * p[m - k * (3 * k - 1) // 2]
                if k * (3 * k + 1) // 2 <= m:
                    s += sign * p[m - k * (3 * k + 1) // 2]
                k += 1
            p.append(s)
        return p[:n]


PARTITIONS = Partitions()


def jacobi(order):
    """{n(2n+1): 4n+1} over integers n with n(2n+1) < order."""
    out = {}
    a = 0
    while min(a * (2 * a + 1), a * (2 * a - 1)) < order:
        for n in ((a, -a) if a else (0,)):
            k = n * (2 * n + 1)
            if k < order:
                out[k] = 4 * n + 1
        a += 1
    return out


def shifted(terms, offset, scale=1):
    return {F(offset) + k: F(c) * scale for k, c in terms.items()}


def eta_terms(t):
    """eta = q^(1/24) prod (1 - q^n), exponents below t."""
    return {e: c for e, c in shifted(pentagonal(int(t) + 1), F(1, 24)).items() if e < t}


def eta3_terms(t, scale=1):
    """eta^3 = q^(1/8) sum (4n+1) q^(n(2n+1)), exponents below t."""
    return {e: c for e, c in shifted(jacobi(int(t) + 1), F(1, 8), scale).items() if e < t}


def inverse_eta_terms(t):
    """1/eta = q^(-1/24) sum p(n) q^n, exponents below t."""
    n = int(t) + 2
    return {F(m) - F(1, 24): F(c) for m, c in enumerate(PARTITIONS.upto(n))
            if F(m) - F(1, 24) < t}


def central_charge(p, pp):
    return F(3, 2) * (1 - F(2 * (pp - p) ** 2, p * pp))


def ramond_weight(p, pp, r, s):
    return F((r * pp - s * p) ** 2 - (pp - p) ** 2, 8 * p * pp) + F(1, 16)


def admissible(p, pp):
    return 1 <= p < pp and (pp - p) % 2 == 0 and gcd((pp - p) // 2, p) == 1


# ---------------------------------------------------------------------------
# the interchange format
# ---------------------------------------------------------------------------


def write_series(denominator, truncation, terms):
    """Interchange dict for {exponent: coefficient} on grid `denominator`."""
    t = F(truncation)
    rows = []
    for e in sorted(terms):
        c = F(terms[e])
        if c == 0:
            continue
        k = F(e) * denominator
        if k.denominator != 1:
            raise ValueError(f"exponent {e} is off the 1/{denominator} grid")
        rows.append([int(k), c.numerator, c.denominator])
    return {"denominator": denominator, "truncation": [t.numerator, t.denominator],
            "terms": rows}


def read_series(obj):
    """(truncation, {exponent: coefficient}) from an interchange dict."""
    d = int(obj["denominator"])
    tn, td = obj["truncation"]
    if d <= 0 or td == 0:
        raise ValueError("bad denominator or truncation")
    terms = {}
    for k, cn, cd in obj["terms"]:
        e = F(k, d)
        if e in terms:
            raise ValueError(f"exponent {e} stored twice")
        terms[e] = F(cn, cd)
    return F(tn, td), terms


def find_series(obj):
    """Every series in a report, found by its keys, in document order."""
    if isinstance(obj, dict):
        if SERIES_KEYS <= obj.keys():
            return [obj]
        return [s for v in obj.values() for s in find_series(v)]
    if isinstance(obj, list):
        return [s for v in obj for s in find_series(v)]
    return []


def walk(obj):
    """(dict, key, value) for every dict entry anywhere in a report."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield obj, k, v
            yield from walk(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from walk(v)


def find_key(obj, key):
    """Every value stored under `key` anywhere in a report."""
    return [v for _, k, v in walk(obj) if k == key]


def check_series(obj, expected, min_truncation=None, truncation=None):
    """Compare a series against `expected(t)`, the exact terms below t.

    `truncation` pins the declared truncation; `min_truncation` only asks
    that the series be exact at least that far.
    """
    try:
        t, got = read_series(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed series: {exc!r}"]
    problems = []
    if truncation is not None and t != truncation:
        problems.append(f"truncation {t}, expected {truncation}")
    if min_truncation is not None and t < min_truncation:
        problems.append(f"truncation {t} below {min_truncation}")
    want = {e: c for e, c in expected(t).items() if c != 0}
    if any(c == 0 for c in got.values()):
        problems.append("a stored coefficient is zero")
    if any(e >= t for e in got):
        problems.append("a term at or beyond the truncation")
    if got != want:
        bad = sorted(set(got) ^ set(want) | {e for e in got if e in want and got[e] != want[e]})
        e = bad[0]
        problems.append(f"coefficient at q^{e}: got {got.get(e, 0)}, expected {want.get(e, 0)}")
    return problems


# ---------------------------------------------------------------------------
# reference arithmetic for operands with no closed form
# ---------------------------------------------------------------------------


def _low(t, terms):
    return min(terms) if terms else t


def ref_mul(a, b):
    """Product of two (truncation, terms) series, by integer convolution.

    Coefficients are scaled to integers by the lcm of their denominators;
    the result keeps only the exponents below the sound truncation
    min(Ta + low(b), Tb + low(a)).
    """
    (ta, xa), (tb, xb) = a, b
    t = min(ta + _low(tb, xb), tb + _low(ta, xa))
    grid = lcm(1, *(e.denominator for e in xa), *(e.denominator for e in xb),
               t.denominator)
    la = lcm(1, *(c.denominator for c in xa.values()))
    lb = lcm(1, *(c.denominator for c in xb.values()))
    ia = sorted((int(e * grid), int(c * la)) for e, c in xa.items())
    ib = sorted((int(e * grid), int(c * lb)) for e, c in xb.items())
    limit = ceil(t * grid)
    acc = {}
    for ka, ca in ia:
        for kb, cb in ib:
            k = ka + kb
            if k >= limit:
                break
            acc[k] = acc.get(k, 0) + ca * cb
    scale = la * lb
    return t, {F(k, grid): F(v, scale) for k, v in acc.items() if v}


def ref_add(a, b):
    (ta, xa), (tb, xb) = a, b
    t = min(ta, tb)
    out = {e: c for e, c in xa.items() if e < t}
    for e, c in xb.items():
        if e < t:
            out[e] = out.get(e, 0) + c
    return t, {e: c for e, c in out.items() if c}


def check_against(obj, reference):
    """Compare a series with a (truncation, terms) reference result."""
    t, terms = reference
    return check_series(obj, lambda _t: terms, truncation=t)


def check_inverse(obj, operand):
    """The declared inverse b of a = q^e u must give a*b = 1 below T - e,
    with b exact below T - 2e."""
    try:
        b = read_series(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed series: {exc!r}"]
    ta, xa = operand
    e = min(xa)
    problems = []
    if b[0] != ta - 2 * e:
        problems.append(f"inverse truncation {b[0]}, expected {ta - 2 * e}")
    t, prod = ref_mul(operand, b)
    if prod != {F(0): F(1)}:
        wrong = sorted(x for x in set(prod) | {F(0)} if prod.get(x, 0) != (1 if x == 0 else 0))
        problems.append(f"a * inverse differs from 1 at q^{wrong[0]} (exact below {t})")
    return problems


# ---------------------------------------------------------------------------
# checks per task
# ---------------------------------------------------------------------------


def _check_flags(payload, required):
    flags = find_key(payload, "pass")
    problems = [f"pass flag {f!r}" for f in flags if f is not True]
    if required and not flags:
        problems.append("no pass flag in the report")
    return problems


def check_cli(command, params, code, stdout):
    """Problems with one CLI report; `params` are the generated arguments."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["report is not JSON"]
    order = params.get("order")
    if command in ("jacobi-verify", "modcheck"):
        return _check_flags(payload, required=True)
    if command == "resolve-signs":
        return _check_flags(payload, required=False)
    if command == "eta3":
        return check_series(payload, eta3_terms, min_truncation=order)
    if command == "bgg":
        series = find_series(payload)
        problems = _check_flags(payload, required=True)
        if len(series) != 1:
            return problems + [f"{len(series)} series in the report, expected 1"]
        return problems + check_series(series[0], lambda t: eta3_terms(t, F(1, 4)),
                                       min_truncation=order)
    if command == "fermion-trace":
        series = find_series(payload)
        problems = _check_flags(payload, required=True)
        if len(series) != 1:
            return problems + [f"{len(series)} series in the report, expected 1"]
        return problems + check_series(series[0], eta_terms,
                                       min_truncation=F(1, 24) + params["level"] + 1)
    if command == "cancellation":
        problems = _check_flags(payload, required=True)
        want = [[n, 1 if n == 0 else 0] for n in range(params["level"] + 1)]
        if find_key(payload, "levels") != [want]:
            problems.append("signed monomial counts differ from [n, 1 if n == 0 else 0]")
        return problems
    if command == "queer-check":
        problems = _check_flags(payload, required=True)
        counts = [v for _, k, v in walk(payload) if k.endswith("_violations")]
        if not counts or any(v != 0 for v in counts):
            problems.append(f"violation counts {counts}, expected all 0")
        return problems
    if command == "spectrum":
        return _check_spectrum(payload, params["p"], params["pp"])
    return [f"no oracle for command {command!r}"]


def _check_spectrum(entries, p, pp):
    c = central_charge(p, pp)
    want = {ramond_weight(p, pp, r, s) for r in range(1, p) for s in range(1, pp)
            if (r - s) % 2}
    problems = []
    got = []
    for entry in entries:
        if F(*entry["c"]) != c:
            problems.append(f"c = {F(*entry['c'])}, expected c_{{{p},{pp}}} = {c}")
        h = F(*entry["h"])
        if h != ramond_weight(p, pp, entry["r"], entry["s"]):
            problems.append(f"h_{{{entry['r']},{entry['s']}}} = {h} off the formula")
        got.append(h)
    if sorted(got) != sorted(want):
        problems.append(f"{len(got)} weights, expected the {len(want)} distinct h_(r,s)")
    return problems[:3]


def check_ring(task, output):
    """Problems with one ring-arithmetic result (see workloads.SeriesRing)."""
    kind = task.expect["kind"]
    if kind == "mismatch":
        want = task.expect["value"]
        return [] if output == want else [f"first_mismatch gave {output}, expected {want}"]
    if kind == "closed":
        return check_series(output, task.expect["terms"], truncation=task.expect["truncation"])
    operands = [read_series(o) for o in task.operands]
    if kind == "inverse":
        return check_inverse(output, operands[0])
    if kind == "product":
        operands *= task.expect.get("factors", 1)
        result = operands[0]
        for x in operands[1:]:
            result = ref_mul(result, x)
        return check_against(output, result)
    if kind == "sum":
        return check_against(output, ref_add(*operands))
    return [f"no oracle for {kind!r}"]


# ---------------------------------------------------------------------------
# self-test: a corrupted output must be caught
# ---------------------------------------------------------------------------


def corrupt(code, output):
    """A copy of a task's (exit code, output) with one checked value changed:
    a series coefficient if there is one, else a count, a formula value or
    a pass flag, else the exit code."""
    out = copy.deepcopy(output)
    if isinstance(out, str):
        try:
            payload = json.loads(out)
        except ValueError:
            return code + 1, out
        code2, payload = corrupt(code, payload)
        return code2, json.dumps(payload)
    series = [s for s in find_series(out) if s["terms"]]
    if series:
        row = series[0]["terms"][-1]
        row[1] += 1 if row[1] != -1 else 2
        return code, out
    if isinstance(out, list) and out and isinstance(out[0], list) and len(out) == 3:
        out[1][0] += 1  # a first_mismatch triple
        return code, out
    for owner, key, value in walk(out):
        if key == "levels":
            value[-1][1] += 1
            return code, out
        if key.endswith("_violations"):
            owner[key] = 1
            return code, out
    if isinstance(out, list) and out and isinstance(out[0], dict) and "c" in out[0]:
        out[0]["c"][0] += 1
        return code, out
    for owner, key, _ in walk(out):
        if key == "pass":
            owner[key] = False
            return code, out
    return code + 1, out
