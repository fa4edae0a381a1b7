"""Command-line front-end: every verification and expansion as a
reproducible, scriptable report, built here from the library's plain result
types; no other module renders reports.

Reports are byte-stable for identical invocations: JSON output uses sorted
keys and exact rationals as [numerator, denominator] pairs (`_q`); floats
appear only in `modcheck` rows.  Exit codes: 0 success/pass, 1 verification
failure, 2 usage or constraint error, or a report that cannot be written.
`main` lets any other exception through, since it is a fault of the program
and not of its input; the `oddtrace` command (`console`) prints its
traceback and exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import stat
import sys
import tempfile
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Tuple

from . import characters, pbw, queer, superalgebras
from .errors import ConstraintError, _digits, _named, _named_number
from .modcheck import ModularResidual, TauPoint, check_S, check_T
from .qseries import FracPowerSeries, eta, euler_product

__all__ = ["CommandConfig", "run", "main", "console", "COMMANDS", "CAPS"]

F = Fraction

S_TOLERANCE = 1e-8
T_TOLERANCE = 1e-10
INTERNAL_ERROR = 3

# The largest --order, --level or --pp each command takes: each costs about
# 1 s there (Python 3.11, shared 2-core host).  The --order commands take
# 0.4-0.9 s at 50000, about 0.4 s of it in euler_product's order^1.5
# additions; fermion-trace and cancellation walk every set of distinct parts
# up to the level, a count that grows exponentially with it (about 9% a
# level), and take about 0.75-1 s at 108; spectrum lists about p p'/2
# weights, with p < p'.
CAPS = {
    "eta": ("order", 50000),
    "eta3": ("order", 50000),
    "jacobi-verify": ("order", 50000),
    "bgg": ("order", 50000),
    "resolve-signs": ("order", 50000),
    "modcheck": ("order", 50000),
    "fermion-trace": ("level", 108),
    "cancellation": ("level", 108),
    "spectrum": ("pp", 300),
}


@dataclass
class CommandConfig:
    command: str
    order: Fraction = F(100)
    level: int = 30
    p: int = 2
    pp: int = 8
    tau: Tuple[float, float] = (0.1, 0.9)
    fmt: str = "json"
    out: Optional[str] = None


def _parse_rational(text: str) -> Fraction:
    # N[/D] only: Fraction also reads floats, and 1e5000 has no bounded cost.
    if re.fullmatch(r"[+-]?\d+(/\d+)?", text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise argparse.ArgumentTypeError(f"not a rational number: {_named(repr(text))}")


def _parse_int(text: str) -> int:
    # The integer part of N[/D]: int also reads 1_0 and " 10".
    if re.fullmatch(r"[+-]?\d+", text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"not an integer: {_named(repr(text))}")


def _parse_tau(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("--tau expects RE,IM")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a pair of reals: {text!r}")


def _int_order(config: CommandConfig) -> int:
    if config.order.denominator != 1 or config.order < 1:
        raise ConstraintError(f"--order must be an integer >= 1 for this command "
                              f"(got {_named_number(config.order)})")
    return int(config.order)


def _q(x: Fraction) -> list:
    return [x.numerator, x.denominator]


def _verification(report: characters.VerificationReport) -> dict:
    """The payload of one series comparison."""
    disc = report.first_discrepancy
    if disc is not None:
        e, lhs, rhs = disc
        disc = {"exp": _q(e), "lhs": _q(lhs), "rhs": _q(rhs)}
    return {"name": report.name, "order": _q(report.order), "pass": report.passed,
            "first_discrepancy": disc}


def _residual_row(series: str, tau: TauPoint, res: ModularResidual, passed: bool,
                  multiplier: Optional[float] = None) -> dict:
    """One `modcheck` row; S rows carry their multiplier as [re, im]."""
    row = {"series": series, "transform": res.transformation, "weight": _q(res.weight),
           "tau": [tau.re, tau.im], "residual": res.residual,
           "tail_bound": res.tail_bound, "pass": passed}
    if multiplier is not None:
        row["multiplier"] = [multiplier, 0.0]
    return row


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, payload)
# ---------------------------------------------------------------------------


def _cmd_eta(config):
    """q-expansion of the Dedekind eta function"""
    return 0, eta(_int_order(config)).to_json_dict()


def _cmd_eta3(config):
    """q-expansion of eta cubed"""
    return 0, (eta(_int_order(config)) ** 3).to_json_dict()


def _cmd_jacobi_verify(config):
    """check eta^3 against q^(1/8) * sum (4n+1) q^(n(2n+1))"""
    report = characters.verify_jacobi(config.order)
    return (0 if report.passed else 1), _verification(report)


def _cmd_fermion_trace(config):
    """brute-force fermion odd trace and its eta check"""
    trace, report = characters._fermion_route(config.level)
    payload = {
        "trace": {
            "prefactor_exponent": _q(trace.prefactor_exponent),
            "levels": [[n, *_q(t)] for n, t in trace.levels],
            "series": trace.series.to_json_dict(),
        },
        "verification": _verification(report),
    }
    return (0 if report.passed else 1), payload


def _cmd_bgg(config):
    """resolution-route odd trace from the (2, 8) Kac labels, checked against eta^3/4"""
    signs, series, report = characters._bgg_route(config.order)
    payload = {
        "signs": _signs_json(signs),
        "series": series.to_json_dict(),
        "verification": _verification(report),
    }
    return (0 if report.passed else 1), payload


def _cmd_resolve_signs(config):
    """signs of the resolution terms matched to eta^3/4"""
    try:
        signs = characters.resolve_signs(config.order)
    except characters.SignResolutionError as exc:
        return 1, {"error": str(exc)}
    return 0, _signs_json(signs)


def _signs_json(signs: Mapping[int, int]) -> dict:
    """The [k, sign] pairs in k order, with kmin and kmax when not empty."""
    out: dict = {"signs": [[k, signs[k]] for k in sorted(signs)]}
    if signs:
        out["kmin"] = min(signs)
        out["kmax"] = max(signs)
    return out


def _cmd_spectrum(config):
    """N=1 minimal-model central charge and Ramond weights"""
    entries = superalgebras.minimal_model_spectrum(config.p, config.pp)
    return 0, [{"p": e.p, "pp": e.pp, "r": e.r, "s": e.s, "c": _q(e.c), "h": _q(e.h)}
               for e in entries]


def _cmd_cancellation(config):
    """signed monomial counts (must vanish above level 0)"""
    if config.level < 1:
        raise ConstraintError("level must be at least 1")
    levels = [[n, c] for n, c in enumerate(pbw.signed_monomial_counts(config.level))]
    counts_ok = all(c == (1 if n == 0 else 0) for n, c in levels)
    # independent q-series route: prod(1-q^n) * prod(1-q^n)^{-1} = 1
    ep = euler_product(config.level + 1)
    product = ep * ep.invert()
    product_ok = product.eq_to_order(
        FracPowerSeries.one(product.truncation), product.truncation)
    payload = {
        "levels": levels,
        "product_identity_pass": product_ok,
        "pass": counts_ok and product_ok,
    }
    return (0 if payload["pass"] else 1), payload


def _cmd_modcheck(config):
    """numerical S/T transformation residuals for eta and eta^3"""
    order = _int_order(config)
    tau = TauPoint(*config.tau)
    e = eta(order)
    series = {"eta": (e, F(1, 2)), "eta^3": (e ** 3, F(3, 2))}
    rows = []
    for name in sorted(series):
        s, weight = series[name]
        t_res = check_T(s, weight, tau)
        rows.append(_residual_row(name, tau, t_res, t_res.residual < T_TOLERANCE))
        s_res = check_S(s, weight, tau, 1)
        rows.append(_residual_row(name, tau, s_res, s_res.residual < S_TOLERANCE, 1.0))
    # elimination witness: the sign-flipped multiplier must fail the S check
    # that the right one meets (>= so that a NaN fails); where Im tau is so
    # large that S cannot tell the two apart (from about 31), the row fails
    witness = check_S(series["eta^3"][0], F(3, 2), tau, -1)
    rows.append(_residual_row("eta^3", tau, witness, witness.residual >= S_TOLERANCE, -1.0))
    ok = all(row["pass"] for row in rows)
    return (0 if ok else 1), {"rows": rows, "pass": ok}


def _cmd_queer_check(config):
    """odd trace and supertrace supersymmetric and unique, on every basis pair"""
    algebras = [(f"Q_{n}", queer.queer_basis(n), "odd trace", queer.odd_trace)
                for n in range(1, 5)]
    algebras.append(("End(2|2)", queer.end_basis(2, 2), "supertrace", queer.supertrace))
    rows = []
    for name, basis, functional, phi in algebras:
        pairs, violations, dimension = queer.supersymmetry_check(basis, phi)
        rows.append({"algebra": name, "functional": functional, "pairs": pairs,
                     "violations": violations, "dimension": dimension})
    ok = all(row["violations"] == 0 and row["dimension"] == 1 for row in rows)
    payload = {
        "algebras": rows,
        "supersymmetry_violations": sum(row["violations"] for row in rows[:-1]),
        "supertrace_violations": rows[-1]["violations"],
        "pass": ok,
    }
    return (0 if ok else 1), payload


COMMANDS = {
    "eta": _cmd_eta,
    "eta3": _cmd_eta3,
    "jacobi-verify": _cmd_jacobi_verify,
    "fermion-trace": _cmd_fermion_trace,
    "bgg": _cmd_bgg,
    "resolve-signs": _cmd_resolve_signs,
    "spectrum": _cmd_spectrum,
    "cancellation": _cmd_cancellation,
    "modcheck": _cmd_modcheck,
    "queer-check": _cmd_queer_check,
}


def _render_text(obj, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            lines.append(pad + "[" + ", ".join(str(v) for v in obj) + "]")
        else:
            for v in obj:
                lines.extend(_render_text(v, indent))
                lines.append(pad + "-")
    else:
        lines.append(pad + str(obj))
    return lines


def render_report(payload, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "\n".join(_render_text(payload)) + "\n"


def _write_report(path: str, text: str) -> None:
    """Write `text` to `path`, replacing a plain file atomically.

    When `path` is missing, or is a writable regular file with one link, the
    report goes to a fresh temporary file beside it, which gets the old
    file's mode (a new file gets 0o666 less the umask) and is renamed into
    place, so a failed write never leaves a half-written report.  Anything
    else is written through, as `open(path, "w")` does: a device such as
    /dev/null, a FIFO, a symlink, a hard-linked or read-only file, a file
    whose owner or group the temporary file would not keep, or a file in a
    directory that does not let us create one.
    """
    try:
        old = os.lstat(path)
    except OSError:
        old = None
    if old is None or (stat.S_ISREG(old.st_mode) and old.st_nlink == 1
                       and os.access(path, os.W_OK)):
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                       prefix=os.path.basename(path) + ".",
                                       suffix=".tmp")
        except OSError:
            pass
        else:
            if _replace(fd, tmp, path, old, text):
                return
    with open(path, "w") as fh:
        fh.write(text)


def _replace(fd: int, tmp: str, path: str, old, text: str) -> bool:
    """Write `text` to the temporary file `tmp`, open as `fd`, and rename it
    over `path`.  Return False, with `tmp` removed and `path` untouched, when
    `tmp` does not have the owner and group of the old file `old`."""
    try:
        with os.fdopen(fd, "w") as fh:
            new = os.fstat(fd)
            keeps = old is None or (new.st_uid, new.st_gid) == (old.st_uid, old.st_gid)
            if keeps:
                os.fchmod(fd, stat.S_IMODE(old.st_mode) if old else 0o666 & ~_umask())
                fh.write(text)
        if keeps:
            os.replace(tmp, path)
            return True
    except BaseException:
        os.remove(tmp)
        raise
    os.remove(tmp)
    return False


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def run(config: CommandConfig) -> int:
    """Dispatch one command, writing its report to `out` or stdout."""
    handler = COMMANDS.get(config.command)
    if handler is None:
        print(f"error: unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        _check_cap(config)
        code, payload = handler(config)
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_report(payload, config.fmt)
    if config.out is not None:
        try:
            _write_report(config.out, text)
        except OSError as exc:
            print(f"error: cannot write report to {config.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def _check_cap(config: CommandConfig) -> None:
    if config.command in CAPS:
        flag, cap = CAPS[config.command]
        value = getattr(config, flag)
        if value > cap:
            raise ConstraintError(f"--{flag} {_named_number(value)} is above the cap of "
                                  f"{cap} for {config.command}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Cached for the process: parsing leaves the parser unchanged, and
    # argparse makes its help formatter only when it prints.  Flags are left
    # out of the namespace unless given, so that the defaults live in
    # CommandConfig alone.  `python -OO` strips the docstrings.
    commands = "".join(f"  {name:<15}{handler.__doc__ or ''}\n"
                       for name, handler in COMMANDS.items())
    caps = "".join(f"  {name:<15}--{flag} <= {cap}\n" for name, (flag, cap) in CAPS.items())
    parser = argparse.ArgumentParser(
        prog="oddtrace",
        description="Exact q-series characters of the free fermion and the "
                    "c = -21/4 Ramond algebra,\nwith verification reports.",
        epilog=f"commands:\n{commands}\ncaps, about 1 s of work each:\n{caps}\n"
               "exit codes: 0 pass, 1 verification failure, 2 usage or constraint error\n"
               "or a report that cannot be written, 3 a fault of the program",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        argument_default=argparse.SUPPRESS)
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                        help="one of the commands listed below")
    parser.add_argument("--order", type=_parse_rational, metavar="N[/D]",
                        help="series order / comparison bound")
    parser.add_argument("--level", type=_parse_int, help="monomial level cap")
    parser.add_argument("--p", type=_parse_int)
    parser.add_argument("--pp", type=_parse_int, help="p' of the minimal model")
    parser.add_argument("--tau", type=_parse_tau, metavar="RE,IM")
    parser.add_argument("--format", dest="fmt", choices=("json", "text"))
    parser.add_argument("--out", help="write the report to a file")
    return parser


def _attach_tau_value(argv: List[str]) -> List[str]:
    """Rewrite `--tau -0.3,0.9` as `--tau=-0.3,0.9`.

    argparse reads a separate token that starts with '-' and is not a plain
    negative number as an option, so a tau with a negative real part would
    otherwise be a usage error.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--tau" and re.match(r"-[\d.]", arg):
            out[-1] = f"--tau={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_tau_value(argv))
    return run(CommandConfig(**vars(args)))


def console(argv=None) -> int:
    """`main` for the `oddtrace` command: an exception that `main` lets
    through is a fault of the program, so its traceback goes to stderr and
    the exit code is 3, apart from the codes of a verification or its input."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(console())
