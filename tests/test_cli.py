import io
import json
import os
import subprocess
import sys

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from qortho.cli import main, parse_conjugation
from qortho.realforms import STAR

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_PATH = os.path.join(HERE, "report.schema.json")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(["--format", "json"] + argv)
    return code, json.loads(out), err


def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


# -- exit codes ----------------------------------------------------------------


def test_passing_check_exits_zero():
    code, out, _ = run(["ybe", "--n", "3"])
    assert code == 0
    assert "overall: pass" in out


def test_small_n_is_usage_error():
    code, _, err = run(["rmat", "--n", "2"])
    assert code == 2
    assert "at least 3" in err


def test_unknown_subcommand_is_usage_error():
    code, _, _ = run(["bogus"])
    assert code == 2


def test_ybe_cap_requires_force():
    for command in ("ybe", "verify-all"):
        code, _, err = run([command, "--n", "13"])
        assert code == 2
        assert "--force" in err


def count_calls(monkeypatch, module, *names):
    """Count calls of functions of module, under every qortho module name
    that refers to them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)
        for mod in list(sys.modules.values()):
            if (mod.__name__.startswith("qortho")
                    and vars(mod).get(name) is real):
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_verify_all_builds_per_n_data_once(monkeypatch):
    import qortho.rmatrix as rmatrix
    counts = count_calls(monkeypatch, rmatrix,
                         "build_R", "build_metric", "build_projectors")
    code, _, _ = run(["verify-all", "--n", "5"])
    assert code == 0
    assert counts == {"build_R": 1, "build_metric": 1, "build_projectors": 1}


def test_table_runs_sostar_basis_checks_once(monkeypatch):
    import qortho.realforms as realforms
    counts = count_calls(monkeypatch, realforms,
                         "check_sostar_basis", "check_sostar")
    code, _, _ = run(["table", "--n", "6", "--regime", "real"])
    assert code == 0
    # steps (i) and (ii) once for N = 6, step (iii) for each of the
    # 2^(n-1) = 4 imaginary-family members
    assert counts == {"check_sostar_basis": 1, "check_sostar": 4}


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_internal_error_exits_three(monkeypatch, error):
    import qortho.cli as cli

    def broken(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_rmat", broken)
    code, out, err = run(["rmat", "--n", "3"])
    assert code == 3
    assert out == ""
    # the traceback comes first; the last line names the error
    assert err.startswith("Traceback")
    assert err.endswith(f"\nerror: internal: {error.__name__}: boom\n")


def test_failed_check_exits_one():
    code, report, _ = run_json(["quotient", "--sign", "plus", "--no-scaling"])
    assert code == 1
    assert report["checks"][0]["pass"] is False


def test_unclassifiable_spec_exits_one():
    code, report, _ = run_json(
        ["classify", "--n", "4",
         "--spec", "base:cross;autos:dsecond:++--;regime:unit"])
    assert code == 1
    assert "error" in report["checks"][0]["witness"]


def test_plane_conj_without_involution_is_usage_error():
    code, _, err = run(["plane-conj", "--n", "4",
                        "--spec", "base:star;autos:dsecond:++--;regime:real"])
    assert code == 2
    assert "no plane conjugation" in err


# -- conjugation grammar --------------------------------------------------------


def test_grammar_full_spec():
    spec = parse_conjugation(
        "base:star;autos:canonical,dprime:-++-;regime:real", 4)
    assert spec.base == STAR
    assert [a.tag() for a in spec.autos] == ["canonical", "dprime:-++-"]


def test_grammar_empty_and_missing_autos():
    assert parse_conjugation("base:star;autos:;regime:real", 4).autos == []
    assert parse_conjugation("base:star;regime:real", 4).autos == []


@pytest.mark.parametrize("bad", [
    "base:star;autos:canonical",                      # missing regime
    "autos:canonical;regime:real",                    # missing base
    "base:banana;regime:real",                        # unknown base
    "base:star;regime:real;regime:real",              # duplicate field
    "base:star;autos:dprime:+-;regime:real",          # wrong sign length
    "base:star;autos:dmagic:++++;regime:real",        # unknown family
    "base:star;autos:canonical;regime:sometimes",     # unknown regime
    "base star;regime:real",                          # missing colon
])
def test_grammar_rejects_malformed(bad):
    code, _, err = run(["classify", "--n", "4", "--spec", bad])
    assert code == 2
    assert err.startswith("error:")


def test_grammar_rejects_family_violation():
    # middle sign of an odd dprime must be +
    code, _, err = run(["classify", "--n", "5",
                        "--spec", "base:star;autos:dprime:++-++;regime:real"])
    assert code == 2


def test_base_regime_mismatch_is_usage_error():
    code, _, _ = run(["classify", "--n", "4",
                      "--spec", "base:cross;autos:;regime:real"])
    assert code == 2


# -- report content -------------------------------------------------------------


def test_classify_reports_label_and_signature():
    code, report, _ = run_json(
        ["classify", "--n", "4",
         "--spec", "base:star;autos:dprime:-++-;regime:real"])
    assert code == 0
    data = report["checks"][0]["data"]
    assert data == {"label": "SO(2,2)", "signature": [2, 2]}


def test_classify_sostar_label():
    code, report, _ = run_json(
        ["classify", "--n", "4",
         "--spec", "base:star;autos:dsecond:++--;regime:real"])
    assert code == 0
    assert report["checks"][0]["data"]["label"] == "SO*(4)"


def test_table_text_row_count_and_total():
    code, out, _ = run(["table", "--n", "6", "--regime", "real"])
    assert code == 0
    assert "total: 10" in out
    assert out.count("SO*(6)") == 4


def test_table_json_is_row_array():
    code, rows, _ = run_json(["table", "--n", "5", "--regime", "real"])
    assert code == 0
    assert isinstance(rows, list) and len(rows) == 4
    assert {row["label"] for row in rows} >= {"SO(5,0)", "SO(3,2)"}


def test_table_caveat_goes_to_stderr_in_json_mode():
    code, rows, err = run_json(["table", "--n", "8", "--regime", "unit"])
    assert code == 0
    assert len(rows) == 2
    assert "note:" in err


def test_plane_report_carries_rules():
    code, report, _ = run_json(["plane", "--n", "3"])
    assert code == 0
    rules = report["checks"][0]["data"]["rules"]
    assert len(rules) == 3
    assert rules[0]["lhs"] == [1, 2]


def test_plane_conj_reports_matrix():
    code, report, _ = run_json(
        ["plane-conj", "--n", "4",
         "--spec", "base:star;autos:canonical;regime:real"])
    assert code == 0
    assert report["checks"][0]["data"]["K"]["2,2"] == "1*s^0"


def test_verify_all_runs_whole_suite():
    code, report, _ = run_json(["verify-all", "--n", "3"])
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    for expected in ("metric_self_inverse", "ybe", "char_eq",
                     "automorphism_families", "plane_confluent"):
        assert expected in names
    assert all(c["pass"] for c in report["checks"])


# -- output formats ---------------------------------------------------------------


def test_env_var_selects_json(monkeypatch):
    monkeypatch.setenv("QORTHO_FORMAT", "json")
    code, out, _ = run(["ybe", "--n", "3"])
    assert code == 0
    assert json.loads(out)["command"] == "ybe"


def test_flag_overrides_env(monkeypatch):
    monkeypatch.setenv("QORTHO_FORMAT", "json")
    code, out, _ = run(["--format", "text", "ybe", "--n", "3"])
    assert code == 0
    assert out.startswith("ybe N=3")


def test_bad_env_format_is_usage_error(monkeypatch):
    monkeypatch.setenv("QORTHO_FORMAT", "yaml")
    code, _, err = run(["ybe", "--n", "3"])
    assert code == 2
    assert "QORTHO_FORMAT" in err


def test_output_is_byte_identical_across_runs():
    a = run(["--format", "json", "verify-all", "--n", "3"])
    b = run(["--format", "json", "verify-all", "--n", "3"])
    assert a == b


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
@pytest.mark.parametrize("argv", [
    ["rmat", "--n", "3"],
    ["ybe", "--n", "3"],
    ["projectors", "--n", "3"],
    ["classify", "--n", "4", "--spec", "base:star;autos:;regime:real"],
    ["table", "--n", "4", "--regime", "real"],
    ["plane", "--n", "3"],
    ["plane-conj", "--n", "3", "--spec", "base:cross;autos:;regime:unit"],
    ["quotient", "--sign", "minus"],
    ["verify-all", "--n", "3"],
])
def test_json_output_validates_against_schema(argv):
    _, payload, _ = run_json(argv)
    jsonschema.validate(payload, schema())


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
def test_schema_rejects_malformed_report():
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"command": "ybe", "n": 3}, schema())


# -- process-level behaviour -------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qortho", "ybe", "--n", "3"],
        capture_output=True, text=True, cwd=HERE,
        env=dict(os.environ, PYTHONPATH=os.path.join(HERE, "src")))
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout


def test_console_function_raises_system_exit(monkeypatch):
    from qortho.cli import console
    monkeypatch.setattr(sys, "argv", ["qortho", "rmat", "--n", "2"])
    with pytest.raises(SystemExit) as exc:
        console()
    assert exc.value.code == 2
