import hashlib
import json
import os
import shlex
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oddtrace import characters, cli, modcheck, qseries, queer, superalgebras
from oddtrace.cli import COMMANDS, CommandConfig, build_parser, main, run
from oddtrace.errors import ConstraintError
from oddtrace.qseries import FracPowerSeries

F = Fraction


def _capture(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes and payloads
# ---------------------------------------------------------------------------

def test_report_json_shape(capsys):
    code, out = _capture(capsys, ["jacobi-verify", "--order", "20"])
    assert code == 0
    assert json.loads(out) == {
        "name": "jacobi-eta-cubed",
        "order": [20, 1],
        "pass": True,
        "first_discrepancy": None,
    }


def test_jacobi_verify_passes(capsys):
    code, out = _capture(capsys, ["jacobi-verify", "--order", "100", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["order"] == [100, 1]


def test_spectrum_2_8(capsys):
    code, out = _capture(capsys, ["spectrum", "--p", "2", "--pp", "8"])
    assert code == 0
    entries = json.loads(out)
    assert [e["c"] for e in entries] == [[-21, 4], [-21, 4]]
    assert sorted(tuple(e["h"]) for e in entries) == [(-7, 32), (-3, 32)]


def test_spectrum_constraint_violation_exits_2(capsys):
    code = main(["spectrum", "--p", "3", "--pp", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert "even" in err


def test_eta_series_payload(capsys):
    code, out = _capture(capsys, ["eta", "--order", "10"])
    assert code == 0
    data = json.loads(out)
    assert data["denominator"] == 24
    assert data["terms"][0] == [1, 1, 1]  # q^(1/24)


def test_eta_rejects_fractional_order(capsys):
    code = main(["eta", "--order", "1/8"])
    assert code == 2
    assert "--order" in capsys.readouterr().err


def test_eta3_lowest_term(capsys):
    code, out = _capture(capsys, ["eta3", "--order", "10"])
    data = json.loads(out)
    assert code == 0
    assert data["terms"][0] == [3, 1, 1]  # exponent 3/24 = 1/8


def test_fermion_trace_report(capsys):
    code, out = _capture(capsys, ["fermion-trace", "--level", "10"])
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["pass"] is True
    assert data["trace"]["prefactor_exponent"] == [1, 24]
    assert data["trace"]["levels"][0] == [0, 1, 1]


def test_bgg_report(capsys):
    code, out = _capture(capsys, ["bgg", "--order", "809/8"])
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["pass"] is True
    assert [0, 1] in data["signs"]["signs"]
    assert [-1, -1] in data["signs"]["signs"]


def test_resolve_signs_window(capsys):
    code, out = _capture(capsys, ["resolve-signs", "--order", "9/8"])
    assert code == 0
    data = json.loads(out)
    assert data["signs"] == [[-1, -1], [0, 1]]
    assert data["kmin"] == -1 and data["kmax"] == 0


def test_cancellation(capsys):
    code, out = _capture(capsys, ["cancellation", "--level", "12"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["product_identity_pass"] is True
    assert data["levels"][0] == [0, 1]
    assert all(c == 0 for n, c in data["levels"][1:])


def test_modcheck(capsys):
    code, out = _capture(capsys, ["modcheck", "--order", "150", "--tau", "0.1,0.9"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert len(data["rows"]) == 5
    witness = [r for r in data["rows"] if r.get("multiplier") == [-1.0, 0.0]]
    assert len(witness) == 1 and witness[0]["residual"] > 1e-2


def test_modcheck_witness_meets_the_S_tolerance(capsys):
    # At Im tau = 20 the sign-flipped multiplier misses S by about 2.7e-5:
    # far above the S tolerance 1e-8, so every row passes.
    code, out = _capture(capsys, ["modcheck", "--order", "350", "--tau=0.1,20"])
    data = json.loads(out)
    assert code == 0 and data["pass"] is True
    assert [r["pass"] for r in data["rows"]] == [True] * 5
    assert data["rows"][-1]["multiplier"] == [-1.0, 0.0]
    assert cli.S_TOLERANCE < data["rows"][-1]["residual"] < 1e-4


def test_modcheck_witness_fails_where_S_cannot_discriminate(capsys):
    # At Im tau = 40 both multipliers meet S to within 1e-8, so the witness
    # row fails while both right-multiplier S rows pass.
    code, out = _capture(capsys, ["modcheck", "--order", "350", "--tau=0.1,40"])
    data = json.loads(out)
    assert code == 1 and data["pass"] is False
    failing = [r for r in data["rows"] if not r["pass"]]
    assert len(failing) == 1 and failing[0]["multiplier"] == [-1.0, 0.0]
    assert failing[0]["residual"] < cli.S_TOLERANCE
    s_rows = [r for r in data["rows"] if r.get("multiplier") == [1.0, 0.0]]
    assert len(s_rows) == 2 and all(r["pass"] for r in s_rows)


def test_residual_json_row(capsys):
    # The residuals are floats from cmath, so the rows are pinned by structure.
    _, out = _capture(capsys, ["modcheck", "--order", "50", "--tau", "0.1,0.9"])
    rows = json.loads(out)["rows"]
    assert [(r["series"], r["transform"], r.get("multiplier")) for r in rows] == [
        ("eta", "T", None), ("eta", "S", [1.0, 0.0]),
        ("eta^3", "T", None), ("eta^3", "S", [1.0, 0.0]), ("eta^3", "S", [-1.0, 0.0])]
    assert [r["weight"] for r in rows] == [[1, 2], [1, 2], [3, 2], [3, 2], [3, 2]]
    for row in rows:
        assert row["tau"] == [0.1, 0.9] and isinstance(row["pass"], bool)
        assert isinstance(row["residual"], float) and isinstance(row["tail_bound"], float)


def test_modcheck_tau_with_negative_real_part(capsys):
    code, out = _capture(capsys, ["modcheck", "--order", "150", "--tau", "-0.3,0.9"])
    assert code == 0
    _, joined = _capture(capsys, ["modcheck", "--order", "150", "--tau=-0.3,0.9"])
    assert out == joined
    assert json.loads(out)["rows"][0]["tau"] == [-0.3, 0.9]


def test_modcheck_rejects_lower_half_plane(capsys):
    code = main(["modcheck", "--tau", "0.1,-0.9"])
    assert code == 2


def test_modcheck_rejects_infinite_tau_naming_it(capsys):
    code = main(["modcheck", "--tau=0.1,inf"])
    assert code == 2
    assert "inf" in capsys.readouterr().err


def test_modcheck_visible_truncation_error_exits_1(capsys):
    # A one-term eta expansion leaves S-residuals ~|q|, far above tolerance.
    code, out = _capture(capsys, ["modcheck", "--order", "1"])
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_queer_check(capsys):
    code, out = _capture(capsys, ["queer-check"])
    assert code == 0
    data = json.loads(out)
    assert [(row["algebra"], row["pairs"], row["violations"], row["dimension"])
            for row in data["algebras"]] == [
        ("Q_1", 4, 0, 1), ("Q_2", 64, 0, 1), ("Q_3", 324, 0, 1), ("Q_4", 1024, 0, 1),
        ("End(2|2)", 256, 0, 1)]
    assert data["supersymmetry_violations"] == 0
    assert data["supertrace_violations"] == 0
    assert data["pass"] is True


def test_queer_check_counts_violations(capsys, monkeypatch):
    # With the parity sign dropped every bracket is a plain commutator: the
    # supertrace fails on pairs of odd matrix units of End(2|2), and on Q_n
    # the commutators of odd elements are traceless in X, which leaves tr X
    # as a second functional.
    monkeypatch.setattr(queer.Supermatrix, "parity", property(lambda self: 0))
    code, out = _capture(capsys, ["queer-check"])
    data = json.loads(out)
    assert (code, data["pass"]) == (1, False)
    assert data["supertrace_violations"] > 0 and data["supersymmetry_violations"] == 0
    assert [row["dimension"] for row in data["algebras"]] == [2, 2, 2, 2, 1]
    monkeypatch.undo()
    # An odd trace that also reads the (0, 0) entry fails on [theta, theta].
    odd_trace = queer.odd_trace
    monkeypatch.setattr(queer, "odd_trace", lambda c: odd_trace(c) + c.entries.get((0, 0), 0))
    code, out = _capture(capsys, ["queer-check"])
    data = json.loads(out)
    assert (code, data["pass"]) == (1, False)
    assert data["supersymmetry_violations"] > 0 and data["supertrace_violations"] == 0
    assert [row["dimension"] for row in data["algebras"]] == [1] * 5


def test_unknown_flag_exits_2(capsys):
    # So does a flag value the parser refuses.  --order is N[/D] and nothing
    # else: an exponent such as 1e5000 has no bounded cost.
    for flags in (["--bogus"], ["--order", "1e5000"], ["--order", "1.5"],
                  ["--order", "1_000"], ["--order", "1/0"], ["--tau", "0.1"],
                  ["--tau", "a,b"]):
        with pytest.raises(SystemExit) as exc:
            main(["jacobi-verify", *flags])
        assert exc.value.code == 2, flags
        assert capsys.readouterr().err.splitlines()[-1].startswith("oddtrace: error: ")


@pytest.mark.parametrize("flag", ["--level", "--p", "--pp"])
@pytest.mark.parametrize("value", ["1_0", " 10", "10 ", "1.0", "0x10", "1/1", "+", ""])
def test_integer_flags_take_only_digits(capsys, flag, value):
    # [+-]?digits, as --order takes N[/D]: int() alone also reads 1_0 and " 10".
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"oddtrace: error: argument {flag}: not an integer: {value!r}"


def test_integer_flags_take_a_sign():
    args = build_parser().parse_args(["spectrum", "--p", "+2", "--pp", "-8", "--level", "007"])
    assert (args.p, args.pp, args.level) == (2, -8, 7)


@pytest.mark.parametrize("argv, shown", [
    (["eta", "--order", "9" * 20], "9" * 20),
    (["eta", "--order", "9" * 21], "<21 digits>"),
    (["eta", "--order", "9" * 4300], "<4300 digits>"),
    (["bgg", "--order", "9" * 30 + "/8"], "<31 digits>"),
    (["fermion-trace", "--level", "9" * 400], "<400 digits>"),
])
def test_cap_error_names_a_long_value_by_its_digits(capsys, argv, shown):
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {argv[1]} {shown} is above the cap of {cli.CAPS[argv[0]][1]} "
            f"for {argv[0]}\n")


def test_a_value_past_int_string_conversion_is_named_by_its_digits(capsys):
    # run() takes values the parser refuses: str() converts no int of more
    # than 4300 digits, so a value is named from its digit counts instead.
    assert run(CommandConfig("fermion-trace", level=10 ** 5000)) == 2
    assert run(CommandConfig("eta", order=F(10 ** 5000))) == 2
    assert run(CommandConfig("eta", order=F(-10 ** 5000))) == 2
    assert run(CommandConfig("eta", order=F(10 ** 5000 + 1, 10 ** 5000))) == 2
    assert capsys.readouterr() == ("", (
        f"error: --level <5001 digits> is above the cap of "
        f"{cli.CAPS['fermion-trace'][1]} for fermion-trace\n"
        f"error: --order <5001 digits> is above the cap of {cli.CAPS['eta'][1]} for eta\n"
        "error: --order must be an integer >= 1 for this command (got <5001 digits>)\n"
        "error: --order must be an integer >= 1 for this command (got <10002 digits>)\n"))


def test_spectrum_names_a_long_p_by_its_digits(capsys):
    # run() takes values the parser refuses; the admissibility message names
    # p by its digit count, and the command exits 2.
    assert run(CommandConfig("spectrum", p=10 ** 5000, pp=8)) == 2
    assert run(CommandConfig("spectrum", p=9, pp=8)) == 2
    assert capsys.readouterr() == ("", (
        "error: admissibility requires p < p' (got p=<5001 digits>, p'=8)\n"
        "error: admissibility requires p < p' (got p=9, p'=8)\n"))


@pytest.mark.parametrize("k", [1, 2, 19, 20, 21, 400, 4300, 4301, 5000])
def test_digit_count_at_each_power_of_ten(k):
    n = 10 ** k
    assert [cli._digits(x) for x in (n - 1, n, -n, 0)] == [k, k + 1, k + 1, 1]


@pytest.mark.parametrize("flag, value, shown", [
    ("--order", "9" * 5000, "<5000 digits>"),
    ("--order", "1e" + "9" * 400, "<401 digits>"),
    ("--level", "9" * 5000, "<5000 digits>"),
    ("--pp", "1_" + "0" * 30, "<31 digits>"),
])
def test_parse_error_names_a_long_value_by_its_digits(capsys, flag, value, shown):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.endswith(f": {shown}") and len(err) < 80


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_parser_defaults_are_command_config_defaults(name):
    assert CommandConfig(**vars(build_parser().parse_args([name]))) == CommandConfig(name)


def test_help_lists_every_command_with_its_description(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, description in [
        ("eta", "q-expansion of the Dedekind eta function"),
        ("eta3", "q-expansion of eta cubed"),
        ("jacobi-verify", "check eta^3 against q^(1/8) * sum (4n+1) q^(n(2n+1))"),
        ("fermion-trace", "brute-force fermion odd trace and its eta check"),
        ("bgg", "resolution-route odd trace from the (2, 8) Kac labels, checked against eta^3/4"),
        ("resolve-signs", "signs of the resolution terms matched to eta^3/4"),
        ("spectrum", "N=1 minimal-model central charge and Ramond weights"),
        ("cancellation", "signed monomial counts (must vanish above level 0)"),
        ("modcheck", "numerical S/T transformation residuals for eta and eta^3"),
        ("queer-check", "odd trace and supertrace supersymmetric and unique, on every basis pair"),
    ]:
        assert any(line.split() == [name, *description.split()] for line in lines), name


def _fresh_process(argv):
    """(exit code, stdout, stderr) of `python -m oddtrace.cli *argv` run in a
    process of its own, on this checkout's package, 80 columns wide."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-m", "oddtrace.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_cached_parser_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    # main reuses one parser in a process; usage errors and --help before a
    # valid call must leave nothing behind in it.
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["spectrum", "--bogus"], ["spectrum", "--p", "x"], ["--help"],
                 ["spectrum", "--p", "3", "--pp", "8"], ["spectrum"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh_process(argv), argv


def _readme_examples():
    """The `oddtrace ...` lines of the README's command-line usage block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command-line usage", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("oddtrace ")]


def test_readme_examples_run(capsys):
    examples = _readme_examples()
    assert len(examples) == len(COMMANDS)
    for argv in examples:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_library_fault_is_not_a_usage_error(monkeypatch, capsys):
    # Kac labels with p = 0 divide by zero inside the resolution route: a
    # fault of the model, not of the input, so it must not exit 2.
    monkeypatch.setattr(characters, "_KAC_LABELS", (0, 8, 1, 2))
    with pytest.raises(ZeroDivisionError):
        main(["bgg", "--order", "20"])


def test_off_grid_exponent_is_refused_not_moved(monkeypatch, capsys):
    # Kac labels (3, 5, 1, 2) put the resolution exponents at n^2/120, off
    # the 1/8 grid: the term at q^(1/120) must be refused, not truncated to
    # q^0, and the refusal is a fault of the model, so it must not exit 2.
    monkeypatch.setattr(characters, "_KAC_LABELS", (3, 5, 1, 2))
    with pytest.raises(ValueError, match="is not an integer$"):
        characters._bgg_route(F(1))
    with pytest.raises(ValueError, match="is not an integer$"):
        main(["bgg", "--order", "1"])


def test_kernel_fault_is_not_a_usage_error(monkeypatch, capsys):
    # A ValueError from inside the library is a fault of the program: `main`
    # lets it through, and the `oddtrace` command exits 3 with its traceback.
    def broken(a, k, b):
        raise ValueError("kernel fault")

    monkeypatch.setattr(qseries, "_packed_power", broken)
    with pytest.raises(ValueError, match="kernel fault"):
        main(["eta3", "--order", "10"])
    assert cli.console(["eta3", "--order", "10"]) == cli.INTERNAL_ERROR == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: kernel fault" in err


@pytest.mark.parametrize("call", [
    lambda: characters.verify_jacobi(F(1, 16)),
    lambda: characters._bgg_route(0),
    lambda: modcheck.TauPoint(0.1, -1.0),
    lambda: modcheck.TauPoint(float("nan"), 1.0),
    lambda: modcheck.check_S(qseries.eta(5), F(1, 2), modcheck.TauPoint(0.1, 0.5), 1),
    lambda: superalgebras.minimal_model_spectrum(3, 4),
    lambda: superalgebras.minimal_model_spectrum(0, 8),
    lambda: characters.resolve_signs(F(1, 9)),
    lambda: modcheck.eval_series(qseries.eta(5), modcheck.TauPoint(0.1, 1e-20)),
    lambda: characters._fermion_route(0),
])
def test_input_checks_raise_constraint_errors(call):
    with pytest.raises(ConstraintError):
        call()


@pytest.mark.parametrize("argv", [
    ["jacobi-verify", "--order", "1/16"],
    ["bgg", "--order", "0"],
    ["fermion-trace", "--level", "0"],
    ["cancellation", "--level", "0"],
    ["modcheck", "--tau", "0.1,0.5"],
    ["resolve-signs", "--order", "1/9"],
    ["resolve-signs", "--order", "0"],
    ["resolve-signs", "--order", "-3"],
    ["modcheck", "--tau=0.1,1e-20"],
    ["modcheck", "--tau=0.1,1e308"],
])
def test_input_errors_exit_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["fermion-trace", "cancellation"])
def test_level_refusal_has_one_wording(capsys, name):
    assert main([name, "--level", "0"]) == 2
    assert capsys.readouterr() == ("", "error: level must be at least 1\n")


@pytest.mark.parametrize("name", sorted(cli.CAPS))
def test_cost_cap_admits_the_cap_and_refuses_one_more(monkeypatch, capsys, name):
    flag, cap = cli.CAPS[name]
    monkeypatch.setitem(COMMANDS, name, lambda config: (0, {}))
    assert main([name, f"--{flag}", str(cap)]) == 0
    assert main([name, f"--{flag}", str(cap + 1)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --{flag} {cap + 1} is above the cap of {cap} for {name}\n"


def test_cost_caps_are_real_limits(capsys):
    # The order cap runs for real (about 1 s); a rational order just past it
    # is refused, as are the level after each level cap and the first
    # admissible pair past the spectrum cap.
    assert main(["jacobi-verify", "--order", "50000"]) == 0
    assert main(["bgg", "--order", "400001/8"]) == 2
    assert main(["fermion-trace", "--level", "109"]) == 2
    assert main(["cancellation", "--level", "109"]) == 2
    assert main(["spectrum", "--p", "299", "--pp", "301"]) == 2
    capsys.readouterr()


def test_caps_are_in_the_help(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    lines = capsys.readouterr().out.splitlines()
    for name, (flag, cap) in cli.CAPS.items():
        assert f"  {name:<15}--{flag} <= {cap}" in lines, name
    assert "or a report that cannot be written, 3 a fault of the program" in lines


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    _, stdout = _capture(capsys, ["jacobi-verify", "--order", "20"])
    code = main(["jacobi-verify", "--order", "20", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(path.read_text())["pass"] is True
    assert path.read_bytes() == stdout.encode()
    assert os.listdir(tmp_path) == ["report.json"]  # no temporary file left


def test_failed_out_write_keeps_the_old_report(tmp_path, capsys, monkeypatch):
    path = tmp_path / "report.json"
    path.write_text("old report\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    assert main(["spectrum", "--out", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write report to {path}: disk full\n"
    assert path.read_text() == "old report\n"
    assert os.listdir(tmp_path) == ["report.json"]


@pytest.mark.parametrize("target, reason", [
    (".", "Is a directory"),
    ("missing/report.json", "No such file or directory"),
])
def test_unwritable_out_exits_2(tmp_path, capsys, target, reason):
    path = tmp_path / target
    assert main(["eta", "--order", "3", "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: cannot write report to {path}: {reason}\n"
    assert os.listdir(tmp_path) == []


def test_empty_out_path_exits_2(tmp_path, capsys, monkeypatch):
    # An empty path names no file: the report is not printed instead.
    monkeypatch.chdir(tmp_path)
    assert main(["eta", "--order", "3", "--out", ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: cannot write report to : No such file or directory\n"
    assert os.listdir(tmp_path) == []


def test_out_to_a_device_writes_through(capsys):
    code = main(["jacobi-verify", "--order", "20", "--out", os.devnull])
    assert code == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_writes_through_a_symlink_and_a_hard_link(tmp_path, capsys):
    _, stdout = _capture(capsys, ["jacobi-verify", "--order", "20"])
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    hard = tmp_path / "hard.json"
    os.link(target, hard)
    main(["jacobi-verify", "--order", "20", "--out", str(link)])
    assert link.is_symlink()
    assert target.read_text() == hard.read_text() == stdout
    os.remove(link)
    target.write_text("old\n")
    main(["jacobi-verify", "--order", "20", "--out", str(hard)])
    assert os.path.samefile(target, hard)
    assert target.read_text() == stdout
    assert sorted(os.listdir(tmp_path)) == ["hard.json", "target.json"]


def test_out_keeps_the_mode_of_a_replaced_report(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text("old\n")
    old.chmod(0o640)
    new = tmp_path / "new.json"
    main(["jacobi-verify", "--order", "20", "--out", str(old)])
    main(["jacobi-verify", "--order", "20", "--out", str(new)])
    mask = os.umask(0)
    os.umask(mask)
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~mask


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                    reason="giving a file to another owner needs root")
def test_out_keeps_the_owner_of_a_replaced_report(tmp_path, capsys):
    _, stdout = _capture(capsys, ["jacobi-verify", "--order", "20"])
    path = tmp_path / "report.json"
    path.write_text("old\n")
    os.chown(path, 4321, 4321)
    main(["jacobi-verify", "--order", "20", "--out", str(path)])
    assert (path.stat().st_uid, path.stat().st_gid) == (4321, 4321)
    assert path.read_text() == stdout
    assert os.listdir(tmp_path) == ["report.json"]


def test_out_ignores_a_stale_temporary_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    stale = tmp_path / f"report.json.{os.getpid()}.tmp"
    stale.write_text("left by a killed run\n")
    assert main(["jacobi-verify", "--order", "20", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["pass"] is True
    assert sorted(os.listdir(tmp_path)) == ["report.json", stale.name]


def test_text_format(capsys):
    code, out = _capture(capsys, ["jacobi-verify", "--order", "20", "--format", "text"])
    assert code == 0
    assert "pass: True" in out
    assert cli.render_report([1, {"a": 2}], "text") == "1\n-\na: 2\n-\n"


# ---------------------------------------------------------------------------
# determinism and dispatch coverage
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["jacobi-verify", "--order", "50"],
    ["spectrum", "--p", "2", "--pp", "8"],
    ["bgg", "--order", "30"],
    ["modcheck", "--order", "80"],
    ["queer-check"],
    ["fermion-trace", "--level", "8"],
])
def test_byte_determinism(capsys, argv):
    _, first = _capture(capsys, argv)
    _, second = _capture(capsys, argv)
    assert first.encode() == second.encode()


# SHA-256 of reports (JSON unless --format text) pinned before a rewrite of
# the code behind them: the streamed signed counts (cancellation,
# fermion-trace), the resolution signs
# derived from the homological degree (bgg, resolve-signs, jacobi-verify),
# the resolution terms built from the (2, 8) Kac labels (bgg, resolve-signs),
# the iterative partition generators with integer fermion tallies
# (fermion-trace, cancellation), and the report payloads built in `cli`
# alone (spectrum, eta, eta3, jacobi-verify as text; a failing jacobi-verify
# is pinned below).  The two queer-check digests are the only ones pinned
# again since: when its End(2|2) supertrace check went in, and when the
# sampled check became the exhaustive check on every basis pair, whose
# report lists each algebra's pairs, violations and dimension.  The empty
# `resolve-signs --order 1/16` report became a usage error when the order
# guard of `bgg` was applied to `resolve-signs`; the smallest window,
# `--order 1/8`, is pinned in its place with its digest from before that
# change.
@pytest.mark.parametrize("argv, digest", [
    (["cancellation", "--level", "25"],
     "e4531c0cb0ddd28bff04059a30bc723d0c9046f26b5fe70f1d9a03b2b142c849"),
    (["queer-check"],
     "56c162c06eab11a457be4fecddea5fa00ef2351148d72093e4b0ab4433ba1d29"),
    (["fermion-trace", "--level", "20"],
     "2d87845e3dd77c00c364902b444398d40cce322d0ec5dd6cf858d22162bf92fe"),
    (["bgg", "--order", "809/8"],
     "bab8f295e92b636c97abee7cef3f41c73e949b97e38750c34b939ee94015c911"),
    (["resolve-signs", "--order", "809/8"],
     "44349d52df4e48a63fdd761f8e33b1eefdacc6f38d16fff2caeb26a253637148"),
    (["bgg", "--order", "9/8"],
     "eaa69c2f546058bad8ba1767c48dba932fd825c70a86e8c8e17a3b2ca92cb501"),
    (["resolve-signs", "--order", "1/8"],
     "ef0698ac77aa503972ec2b7675e6e70c6769cabe8a1b73af1b6e6083be21d1fb"),
    (["jacobi-verify", "--order", "350"],
     "df32c406adc3598124f5f910ecb3e25131d5c7b40d14f1db2a848f95f60f884c"),
    (["bgg"],
     "5b94a9e171ee670df14e3d1594d2ad835516e666c1ae2f182a1f12909887b20f"),
    (["bgg", "--order", "81/8"],
     "ffe517e048a23cd303abe8170e6d6f2e8d36c2ea7e34c8fece4a304b605125ec"),
    (["bgg", "--order", "9/8", "--format", "text"],
     "0329da73b8a5ea0dade9617f40d96a27be7d36ff1d7674835ac2e210b282dbdc"),
    (["resolve-signs", "--order", "2745/8"],
     "ec8859707cd922af294ee5965498857d5efe9d9916a99500be227e0f31795bec"),
    (["resolve-signs", "--order", "81/8"],
     "b33276c6096188fcae395927845e517fe27002d68349bfc82f38cc15d0c1aed0"),
    (["fermion-trace", "--level", "36"],
     "5e47f321001bc9d80210ef53c7de70c55f5bf2782eb420e64050bfeaae51339c"),
    (["fermion-trace", "--format", "text"],
     "8097e452786fe1283a357c19688d1bd7bc441e0d3e33e8514cfe777c92b9877d"),
    (["cancellation", "--level", "23", "--format", "text"],
     "66930c778fb1884e9a01f7e7163ab2149dc9a194256d868f6c4c4423e7afd44f"),
    (["queer-check", "--format", "text"],
     "d4fb7f49ad42f20419b0b2fecbff417685c557f4deb50bf58d7832c0c5a95130"),
    (["spectrum"],
     "f42edfceb634d5b509e1478c1cb434268b448b8d7056b8ecd1371825c6c7f0f3"),
    (["spectrum", "--format", "text"],
     "e55327d0af9e5277498d04cf98f614c1f85206f6202b59d35d49b79ce44091a8"),
    (["spectrum", "--p", "5", "--pp", "7"],
     "3d7f4f7c458146a7bfb9706fc977fe67122ce518fc8d1a3bb69284710f3f3e37"),
    (["eta", "--order", "30"],
     "adcdc8c886fec11f88c92ba09191ccbf73ead906f486af2944cb7efa600bd99c"),
    (["eta3", "--order", "30"],
     "f1157c1eb70415e3bc843412a6478e1e6d0227f326ee15bda5677913e32471c2"),
    (["jacobi-verify", "--order", "20", "--format", "text"],
     "96b56672e298f0921d7f2f3b1df065f7610ebb7fdbd9178ca750208fe7eba048"),
])
def test_report_bytes_are_pinned(capsys, argv, digest):
    _, out = _capture(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt, digest", [
    ("json", "ab80a67377ccc73b10cefaaad4efad0de0db2eeb7791717ba58d920a2b5dc0ec"),
    ("text", "3258b8dfa45cc298e7b0139c235a4c08392620a34dacf77d3bee05960bdeabba"),
])
def test_failing_report_bytes_are_pinned(capsys, monkeypatch, fmt, digest):
    # One extra q^(9/8) on the Jacobi side fills the exp/lhs/rhs branch.
    real = characters.jacobi_rhs

    def perturbed(n):
        s = real(n)
        return s + FracPowerSeries.monomial(F(9, 8), 1, s.truncation)

    monkeypatch.setattr(characters, "jacobi_rhs", perturbed)
    code, out = _capture(capsys, ["jacobi-verify", "--order", "20", "--format", fmt])
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_rationals_in_lowest_terms(capsys):
    _, out = _capture(capsys, ["eta", "--order", "15"])
    data = json.loads(out)
    for _, num, den in data["terms"]:
        assert den > 0 and F(num, den) == F(num) / den


def test_run_accepts_config_directly(capsys):
    code = run(CommandConfig(command="spectrum", p=2, pp=4))
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == [{"p": 2, "pp": 4, "r": 1, "s": 2, "c": [0, 1], "h": [0, 1]}]
    assert run(CommandConfig(command="nope")) == 2
    assert capsys.readouterr() == ("", "error: unknown command 'nope'\n")
