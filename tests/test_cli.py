import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import zetakit
from zetakit import catalog
from zetakit.cli import main
from zetakit.specfun import riemann_zeta


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_zeta3_apery(capsys):
    code, out = run(capsys, "compute", "zeta3", "--method", "apery", "--tol", "1e-12")
    assert code == 0
    value = float(out.split()[0].split("=")[1])
    assert abs(value - riemann_zeta(3.0).value) <= 1e-12


def test_compute_cl2_quarter_turn(capsys):
    code, out = run(capsys, "compute", "cl2", "--theta", "1.5707963267948966")
    assert code == 0
    assert out.startswith("value=0.915965594177219")


@pytest.mark.parametrize("theta, out", [
    ("-1e6", "value=0.7259329597963965 terms_used=5 error_bound=4.030e-11\n"),
    ("-5e-324", "value=-3.680789061517287e-321 terms_used=1 error_bound=7.905e-323\n"),
    ("-3.0", "value=-0.0980262093913018 terms_used=25 error_bound=6.251e-15\n"),
], ids=["-1e6", "-5e-324", "-3.0"])
def test_compute_cl2_takes_a_negative_theta_in_either_form(capsys, theta, out):
    # argparse's stock negative-number pattern has no exponent, so it once took
    # the -1e6 of `--theta -1e6` for an option and exited 2
    assert run(capsys, "compute", "cl2", f"--theta={theta}") == (0, out)
    assert run(capsys, "compute", "cl2", "--theta", theta) == (0, out)


@pytest.mark.parametrize("text", ["-inf", "-nan", "-Infinity", "-NaN", "-INF"])
def test_compute_takes_negative_inf_and_nan_as_values(capsys, text):
    # they once read as options: --theta -inf exited with "expected one
    # argument" and zeta -inf with "unrecognized arguments"; both spellings of
    # each now reach the finiteness check, since float() takes the text
    for spellings, message in (
        ((["cl2", f"--theta={text}"], ["cl2", "--theta", text]), "theta must be finite"),
        ((["zeta", "--", text], ["zeta", text]), "s must be finite"),
    ):
        results = []
        for argv in spellings:
            with pytest.raises(SystemExit) as exc:
                main(["compute", *argv])
            captured = capsys.readouterr()
            results.append((exc.value.code, captured.out, captured.err))
        assert results[0] == results[1], spellings
        code, out, err = results[0]
        assert (code, out) == (2, "") and err.endswith(f"zetakit: error: {message}\n"), spellings


def test_compute_beta_three(capsys):
    code, out = run(capsys, "compute", "beta", "3")
    assert code == 0
    value = float(out.split()[0].split("=")[1])
    assert abs(value - math.pi ** 3 / 32) <= 1e-13


def test_compute_other_constants(capsys):
    for argv, expected in [
        (("compute", "zeta", "2"), math.pi ** 2 / 6),
        (("compute", "catalan"), 0.91596559417721901),
        (("compute", "gamma"), 0.57721566490153287),
        (("compute", "zetaE", "0"), math.pi / 4),
    ]:
        code, out = run(capsys, *argv)
        assert code == 0
        assert abs(float(out.split()[0].split("=")[1]) - expected) <= 1e-12


def test_compute_zeta_past_the_rising_factorial_range(capsys):
    # from s ~ 4.77e14 the rising factorial overflows; the corrections are 0.0
    for s in ("4e14", "1e15", "1e300"):
        code, out = run(capsys, "compute", "zeta", s)
        assert code == 0, s
        assert out.startswith("value=1 terms_used=28 "), s


def test_compute_usage_errors(capsys, tmp_path):
    for argv in (
        ["compute", "nope"],
        ["compute", "zeta3", "--method", "bogus"],
        ["compute", "zeta", "1"],   # pole
        ["compute", "cl2"],         # missing --theta
        ["compute", "cl2", "--theta", "1", "--method", "bogus"],
        ["compute", "zeta"],        # missing argument
        # inputs the constant does not read were once dropped silently
        ["compute", "catalan", "5"],
        ["compute", "beta", "3", "--theta", "2"],
        ["compute", "beta", "3", "--method", "accel"],
        ["compute", "zeta3", "3"],
        ["converge", "--target", "bogus"],
        # an unwritable --out was once a traceback and exit 1
        ["list", "--out", str(tmp_path / "missing" / "x")],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("constant, message", [
    ("zeta", "compute zeta needs an argument s"),
    ("beta", "compute beta needs an argument s"),
    ("cl2", "compute cl2 needs --theta"),
    ("zetaE", "compute zetaE needs an integer k"),
])
def test_compute_missing_input_names_it(capsys, constant, message):
    with pytest.raises(SystemExit) as exc:
        main(["compute", constant])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"zetakit: error: {message}"


def test_compute_zeta3_direct_prints_pinned_bytes(capsys):
    for argv in (["compute", "zeta3"], ["compute", "zeta3", "--method", "direct"]):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out == "value=1.202056903159594 terms_used=28 error_bound=4.988e-15\n"


def test_compute_tolerance_out_of_range():
    for method in ("apery", "ewell"):
        for tol in ("1e-20", "-1", "nan"):
            with pytest.raises(SystemExit) as exc:
                main(["compute", "zeta3", "--method", method, "--tol", tol])
            assert exc.value.code == 2
    # the range holds for every constant, not only where a depth is chosen
    with pytest.raises(SystemExit) as exc:
        main(["compute", "catalan", "--tol", "1"])
    assert exc.value.code == 2


def test_compute_inconclusive_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "MAX_TERMS", 4)
    code = main(["compute", "zeta3", "--method", "ewell", "--tol", "1e-10"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "ZETA3_EWELL_16" in captured.err and "4-term cap" in captured.err


def test_compute_term_cap_counts_terms(capsys, monkeypatch):
    # Ewell's series starts at n = 0 and needs n = 0..14 at 1e-10: 15 terms
    argv = ["compute", "zeta3", "--method", "ewell", "--tol", "1e-10"]
    monkeypatch.setattr(catalog, "MAX_TERMS", 14)
    assert main(argv) == 3
    assert "14-term cap" in capsys.readouterr().err
    monkeypatch.setattr(catalog, "MAX_TERMS", 15)
    code, out = run(capsys, *argv)
    assert code == 0 and "terms_used=15 " in out


def test_verify_all_exit_and_annotations(capsys):
    code, out = run(capsys, "verify", "--all", "--tol", "1e-9")
    assert code == 0
    assert out.count("expected-discrepancy") == 2
    assert "INCONCLUSIVE" not in out


def test_verify_single_ids(capsys):
    code, out = run(capsys, "verify", "--id", "SUM_9", "--tol", "1e-10")
    assert code == 0 and "pass" in out
    code, out = run(capsys, "verify", "--id", "THM_21", "--m", "5", "--tol", "1e-10")
    assert code == 0
    assert "2.000000000000000e-01" in out


def test_verify_family_with_k_flag(capsys):
    code, out = run(capsys, "verify", "--id", "SUM_38", "--k", "0", "--tol", "1e-10")
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("argv, message", [
    (["--id", "SUM_28", "--m", "2", "--k", "3"], "SUM_28 takes --k, not --m"),
    (["--id", "SUM_28", "--m", "2"], "SUM_28 takes --k, not --m"),
    (["--id", "THM_21", "--k", "5"], "THM_21 takes --m, not --k"),
    (["--id", "THM_21", "--m", "5", "--k", "5"], "THM_21 takes --m, not --k"),
    (["--id", "SUM_38", "--m", "0"], "SUM_38 takes --k, not --m"),
])
def test_verify_family_rejects_the_other_flag(capsys, argv, message):
    # the other flag was once dropped, or taken in place of the family's own
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv, "--tol", "1e-10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"zetakit: error: {message}"


@pytest.mark.parametrize("command", [["compute", "zeta3", "--method", "apery"],
                                     ["verify", "--id", "SUM_23"],
                                     ["converge", "--target", "zeta3"]])
def test_tol_lower_bound_is_the_catalog_floor(capsys, command):
    # the parser keeps its own literal, so that building it imports no layer
    floor = catalog.MIN_TOLERANCE
    code, _ = run(capsys, *command, "--tol", repr(floor))
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main([*command, "--tol", repr(math.nextafter(floor, 0.0))])
    assert exc.value.code == 2


def test_verify_json_deterministic(capsys):
    _, out1 = run(capsys, "verify", "--all", "--tol", "1e-9", "--format", "json")
    _, out2 = run(capsys, "verify", "--all", "--tol", "1e-9", "--format", "json")
    assert out1 == out2
    data = json.loads(out1)
    failing = [(r["key"]["id"], r["variant"]) for r in data if not r["pass"]]
    assert failing == [("SUM_34", "printed"), ("SUM_28", "printed")] or \
        failing == [("SUM_28", "printed"), ("SUM_34", "printed")]


def test_verify_inconclusive_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "MAX_TERMS", 4)
    code, out = run(capsys, "verify", "--id", "RZS_ONE", "--tol", "1e-9")
    assert code == 3
    assert "INCONCLUSIVE" in out


def test_verify_wrong_closed_form_fails(capsys, monkeypatch):
    entry = catalog.get("SUM_9")
    monkeypatch.setitem(catalog.registry(), "SUM_9", entry._replace(closed_fn=lambda p: entry.closed_fn(p) + 1.0))
    code, out = run(capsys, "verify", "--id", "SUM_9", "--tol", "1e-10")
    assert code == 1
    assert out.startswith("SUM_9  corrected ") and out.endswith("  FAIL\n")


def test_converge_inconclusive_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "MAX_TERMS", 4)
    code = main(["converge", "--target", "zeta3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "not reached at the 4-term cap" in captured.err


def test_verify_bad_flags(capsys):
    for argv in (
        ["verify", "--all", "--tol", "1e-20"],
        ["verify", "--all", "--param-limit", "100"],
        ["verify", "--id", "NOPE_1"],
        ["verify", "--all", "--m", "3"],  # a family flag was once dropped under --all
        ["verify", "--all", "--k", "3"],
        # --param-limit, read by --all only, was once dropped under --id
        ["verify", "--id", "SUM_9", "--param-limit", "5"],
        ["verify", "--id", "THM_21", "--m", "5", "--param-limit", "12"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_usage_error_prints_the_message_unquoted(capsys):
    # str() of a KeyError is the repr of its message
    for argv, message in ((["verify", "--id", "NOPE"], "unknown identity id 'NOPE'"),
                          (["compute", "zeta3", "--method", "nope"], "unknown zeta3 method 'nope'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"zetakit: error: {message}"


def test_converge_csv(capsys):
    code, out = run(capsys, "converge", "--target", "zeta3", "--tol", "1e-10", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "id,paper_eq,tolerance,terms_needed,achieved_error,wall_time_ns"
    assert len(lines) == 10


def test_converge_tolerance_monotonicity(capsys):
    _, loose = run(capsys, "converge", "--target", "zeta3", "--tol", "1e-6", "--format", "csv")
    _, tight = run(capsys, "converge", "--target", "zeta3", "--tol", "1e-10", "--format", "csv")

    def terms(text):
        return {line.split(",")[0]: int(line.split(",")[3]) for line in text.strip().split("\n")[1:]}

    loose_terms, tight_terms = terms(loose), terms(tight)
    assert all(loose_terms[k] <= tight_terms[k] for k in loose_terms)


def test_converge_markdown(capsys):
    code, out = run(capsys, "converge", "--target", "zeta3", "--tol", "1e-8", "--format", "markdown")
    assert code == 0
    assert out.startswith("| id |")
    assert out.count("\n") == 11


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "reports.json"
    code, _ = run(capsys, "verify", "--all", "--tol", "1e-9", "--format", "json", "--out", str(path))
    assert code == 0
    assert len(json.loads(path.read_text())) == 89


def test_converge_out_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, _ = run(capsys, "converge", "--target", "catalan-relations", "--format", "csv", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("id,paper_eq,")


def test_list_json(capsys):
    code, out = run(capsys, "list", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) >= 33
    assert all(row["paper_eq"] for row in data)
    assert {row["status"] for row in data} == {"as-printed", "corrected", "representation"}


def test_list_text(capsys):
    code, out = run(capsys, "list")
    assert code == 0
    assert "SUM_23" in out and "Eq. (23)" in out


# --- pinned stdout --------------------------------------------------------------------

ZETA3_STDOUT = {
    "ZETA3_12": "value=1.202056903159685 terms_used=8 error_bound=1.527e-13",
    "ZETA3_13": "value=1.202056903159472 terms_used=20 error_bound=2.079e-13",
    "ZETA3_APERY_14": "value=1.202056903159415 terms_used=16 error_bound=2.206e-13",
    "ZETA3_CK_15": "value=1.202056903159801 terms_used=17 error_bound=3.546e-13",
    "ZETA3_EWELL_16": "value=1.20205690315967 terms_used=18 error_bound=1.337e-13",
    "ZETA3_17": "value=1.20205690315937 terms_used=7 error_bound=3.776e-13",
    "ZETA3_18": "value=1.202056903159483 terms_used=8 error_bound=2.135e-13",
    "ZETA3_19": "value=1.202056903159628 terms_used=9 error_bound=7.552e-14",
    "ZETA3_20": "value=1.202056903159566 terms_used=5 error_bound=6.221e-14",
}


@pytest.mark.parametrize("ident", list(ZETA3_STDOUT))
def test_compute_zeta3_methods_print_pinned_bytes(capsys, ident):
    code, out = run(capsys, "compute", "zeta3", "--method", ident, "--tol", "1e-12")
    assert code == 0
    assert out == ZETA3_STDOUT[ident] + "\n"


def test_list_json_prints_pinned_bytes(capsys):
    code, out = run(capsys, "list", "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "5d327d14b7947b46e666ff6bbc258121e8a99b1dd4df7c998cf34171d01f066b"


def test_list_text_prints_pinned_bytes(capsys):
    code, out = run(capsys, "list")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "661764806bdb840c80ddd87a652e3f51f912226603d025fac739539fc1a98836"


def test_converge_all_csv_prints_pinned_bytes(capsys):
    code, out = run(capsys, "converge", "--target", "all", "--format", "csv")
    assert code == 0
    # columns 1-5: every column but the machine-dependent wall_time_ns
    table = "".join(",".join(line.split(",")[:5]) + "\n" for line in out.splitlines())
    assert table.startswith("id,paper_eq,tolerance,terms_needed,achieved_error\n")
    digest = hashlib.sha256(table.encode("utf-8")).hexdigest()
    assert digest == "23c3c6532789fa9c480606fb5b7e2087d52f6fbe190242f828827de20c2f28fb"


@pytest.mark.parametrize("format, timing, digest", [
    ("markdown", r"\| \d+ \|$", "987e6fd57ac518f2a99351b491ec3282cc19e82eb47f96c776de3bb5b70109d3"),
    ("json", r'"wall_time_ns": \d+$', "9076ce057eabc609a61d4a4ee1b8e0e03056e19f84833ee4b2ef03810bff8a26"),
])
def test_converge_all_prints_pinned_bytes(capsys, format, timing, digest):
    code, out = run(capsys, "converge", "--target", "all", "--format", format)
    assert code == 0
    # the machine-dependent wall_time_ns is written as 0
    table, count = re.subn(timing, lambda m: re.sub(r"\d+", "0", m.group()), out, flags=re.M)
    assert count == 26
    assert hashlib.sha256(table.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("compute", "beta", "512"), ("compute", "beta", "600"), ("compute", "beta", "1e6"),
    ("compute", "zetaE", "309"), ("compute", "zetaE", "310"), ("compute", "zetaE", "400"),
])
def test_compute_far_end_of_the_domain(capsys, argv):
    # 4^s overflows from s = 512 and pi^(2k+1) from k = 310; beta is 1.0 there
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == "value=1 terms_used=1 error_bound=3.553e-15\n"


# --- what a cold command loads ------------------------------------------------------

_WATCHED = ("dataclasses", "decimal", "fractions")

_PROBE = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
had = set(sys.modules)
{body}
print(repr((sorted(m for m in sys.modules if m.split(".")[0] == "zetakit"),
            sorted(m for m in {watched!r} if m in sys.modules and m not in had))))
"""


def loaded_after(body):
    """The zetakit modules a fresh interpreter holds after running body, and
    which of dataclasses, decimal and fractions body loaded."""
    src = os.path.dirname(os.path.dirname(zetakit.__file__))
    probe = _PROBE.format(src=src, body=body, watched=_WATCHED)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


SPECFUN_ONLY = ("zetakit.catalog", "zetakit.verifier", "zetakit.convergence", "zetakit.quadrature")
NO_CHECKS = ("zetakit.verifier", "zetakit.convergence", "zetakit.quadrature")
NO_FRACTIONS = ("fractions", "decimal")


@pytest.mark.parametrize("argv, absent", [
    (["compute", "catalan"], SPECFUN_ONLY + NO_FRACTIONS),
    (["compute", "cl2", "--theta", "1.0"], SPECFUN_ONLY + NO_FRACTIONS),
    (["compute", "beta", "3"], SPECFUN_ONLY + NO_FRACTIONS),
    (["compute", "zetaE", "0"], SPECFUN_ONLY + NO_FRACTIONS),
    (["compute", "zeta3"], SPECFUN_ONLY + NO_FRACTIONS),
    (["compute", "zeta3", "--method", "apery", "--tol", "1e-12"], NO_CHECKS + NO_FRACTIONS),
    (["list", "--format", "json"], NO_CHECKS + NO_FRACTIONS),
    (["converge", "--target", "zeta3"], ("zetakit.verifier", "zetakit.quadrature") + NO_FRACTIONS),
    (["verify", "--id", "THM_21", "--m", "5"], ("zetakit.convergence",) + NO_FRACTIONS),
    (["compute", "zeta3", "--method", "ewell", "--tol", "1e-12"], NO_CHECKS + NO_FRACTIONS),
    (["list"], NO_CHECKS + NO_FRACTIONS),
    (["verify", "--all", "--format", "json"], ("zetakit.convergence",) + NO_FRACTIONS),
])
def test_command_loads_only_what_it_runs(argv, absent):
    body = ("from zetakit import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0")
    modules, loaded = loaded_after(body)
    assert "zetakit.cli" in modules
    assert not set(absent) & set(modules + loaded), (modules, loaded)
    assert "dataclasses" not in loaded


def test_import_zetakit_loads_no_submodule():
    modules, loaded = loaded_after("import zetakit")
    assert modules == ["zetakit"]
    assert loaded == []
    # a submodule name still resolves after a plain import, and loads only its layers
    modules, loaded = loaded_after("import zetakit\nassert zetakit.catalog.registry()")
    assert modules == ["zetakit", "zetakit.catalog", "zetakit.exact", "zetakit.specfun",
                       "zetakit.summation"]
    assert loaded == []


def test_lazy_exports_resolve():
    for name in zetakit.__all__:
        assert getattr(zetakit, name) is not None, name
    assert zetakit.clausen_cl2 is zetakit.specfun.clausen_cl2
    assert zetakit.verify is zetakit.verifier.verify
    assert zetakit.quadrature is sys.modules["zetakit.quadrature"]
    assert set(zetakit.__all__) <= set(dir(zetakit))
    with pytest.raises(AttributeError):
        zetakit.no_such_name
    namespace = {}
    exec("from zetakit import *", namespace)
    assert set(zetakit.__all__) <= set(namespace)
