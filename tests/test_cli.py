import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from qortho.cli import _dumps, main, parse_conjugation
from qortho.linalg import SqMat
from qortho.realforms import STAR, AutoMatrix, enumerate_autos
from qortho.scalars import Scalar

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


@pytest.mark.parametrize("argv", [
    [],                                               # no command
    ["bogus"],                                        # unknown command
    ["rmat", "--n", "3", "--bogus"],                  # unknown flag
    ["table", "--n", "4", "--reg", "real"],           # no prefix abbreviations
    ["--n", "3", "rmat"],                             # command flag too early
    ["rmat", "--n"],                                  # flag without a value
    ["rmat", "--n", "x"],                             # non-integer --n
    ["table", "--n", "4", "--regime", "bogus"],       # bad choice
    ["rmat"],                                         # missing --n
    ["classify", "--n", "4"],                         # missing --spec
    ["quotient"],                                     # missing --sign
    ["--format", "yaml", "rmat", "--n", "3"],         # bad --format
    ["rmat", "--n", "3", "extra"],                    # extra argument
    ["ybe", "--n", "3", "--force=yes"],               # value for a switch
], ids=lambda argv: " ".join(argv) or "empty")
def test_malformed_argv_is_one_line_usage_error(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_format_flag_before_or_after_the_command():
    before = run(["--format", "json", "rmat", "--n", "3"])
    after = run(["rmat", "--n", "3", "--format", "json"])
    assert before == after
    assert before[0] == 0 and json.loads(before[1])["command"] == "rmat"


def test_flag_value_after_equals_sign():
    assert run(["verify-all", "--n=4"]) == run(["verify-all", "--n", "4"])
    assert run(["--format=json", "table", "--n=5", "--regime=real"]) == \
        run(["--format", "json", "table", "--n", "5", "--regime", "real"])


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["rmat", "-h"]])
def test_help_lists_every_command(argv):
    code, out, err = run(argv)
    assert code == 0 and err == ""
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("  ")]
    assert listed == ["rmat", "ybe", "projectors", "classify", "table",
                      "plane", "plane-conj", "quotient", "verify-all"]
    assert "QORTHO_FORMAT" in out and "base:star|cross" in out


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


@pytest.mark.parametrize("N", [4, 5, 6])
def test_verify_all_reduces_pa_once(N, monkeypatch):
    # verify-all builds P_A's reduced basis once; rank_pa and the plane
    # relations reduce that basis again and take no elimination step
    import qortho.cli as cli
    import qortho.linalg as linalg
    import qortho.rmatrix as rmatrix
    builds = count_calls(monkeypatch, rmatrix, "build_pa_rows")
    steps = count_calls(monkeypatch, linalg, "_eliminate")
    steps_in_checks = []

    def no_steps(fn):
        def wrapper(*args):
            before = steps["_eliminate"]
            result = fn(*args)
            steps_in_checks.append(steps["_eliminate"] - before)
            return result
        return wrapper

    monkeypatch.setattr(cli, "rank", no_steps(cli.rank))
    monkeypatch.setattr(cli, "plane_relations", no_steps(cli.plane_relations))
    code, _, _ = run(["verify-all", "--n", str(N)])
    assert code == 0
    assert builds == {"build_pa_rows": 1} and steps["_eliminate"] > 0
    assert steps_in_checks == [0, 0]


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


def test_verify_all_reports_failing_family_member(monkeypatch):
    import qortho.cli as cli

    # diag(2, 1, 1, 1/2) keeps the metric and commutes with R, so it
    # fails only D^2 = +-1
    torus = SqMat.diag([Scalar.from_frac(2), Scalar.one(), Scalar.one(),
                        Scalar.from_frac(Fraction(1, 2))])

    def autos(N, family):
        members = enumerate_autos(N, family)
        if family == "dprime":
            first = members[0]
            members[0] = AutoMatrix(first.family, N, first.eps, torus,
                                    first.square_sign)
        return members

    monkeypatch.setattr(cli, "enumerate_autos", autos)
    code, report, _ = run_json(["verify-all", "--n", "4"])
    assert code == 1
    suite, = [c for c in report["checks"]
              if c["name"] == "automorphism_families"]
    assert suite["pass"] is False
    assert suite["witness"] == {
        "condition": "square",
        "detail": {"col": 1, "lhs": "4*s^0", "rhs": "1*s^0", "row": 1},
        "member": "dprime:++++"}
    assert all(c["pass"] for c in report["checks"]
               if c["name"] != "automorphism_families")


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


STARTUP_PROBE = """
import io, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from qortho.cli import main
for argv in (["rmat", "--n", "3"], ["verify-all", "--n", "4"],
             ["ybe", "--n", "4"]):
    if main(argv, out=io.StringIO(), err=io.StringIO()) != 0:
        sys.exit(f"{argv} failed")
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_startup_path_imports_no_argparse_or_fractions():
    # a fresh interpreter without site (-I -S), so that only qortho's own
    # imports are counted; pytest itself imports fractions and json
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", STARTUP_PROBE,
         os.path.join(HERE, "src")],
        capture_output=True, text=True, cwd=HERE)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "qortho.cli" in loaded
    assert not loaded & {"argparse", "gettext", "locale", "fractions",
                         "decimal", "numbers", "json", "re"}


def test_console_function_raises_system_exit(monkeypatch):
    from qortho.cli import console
    monkeypatch.setattr(sys, "argv", ["qortho", "rmat", "--n", "2"])
    try:
        with pytest.raises(SystemExit) as exc:
            console()
    finally:
        gc.unfreeze()  # console() freezes the heap it exits with
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, code", [
    (["rmat", "--n", "3"], 0),
    (["--format", "json", "classify", "--n", "6",
      "--spec", "base:star;autos:dsecond:+++---,canonical;regime:real"], 1),
    (["rmat", "--n", "2"], 2),
])
def test_process_exit_matches_main(argv, code):
    # the process entry freezes the heap before it exits; what it prints
    # and its exit code are still exactly those of main()
    proc = subprocess.run(
        [sys.executable, "-m", "qortho"] + argv,
        capture_output=True, text=True, cwd=HERE,
        env=dict(os.environ, PYTHONPATH=os.path.join(HERE, "src")))
    assert (proc.returncode, proc.stdout, proc.stderr) == run(argv)
    assert proc.returncode == code


def test_main_leaves_the_collector_alone():
    before = gc.get_freeze_count()
    for argv in (["rmat", "--n", "3"], ["rmat", "--n", "2"]):
        run(argv)
    assert gc.get_freeze_count() == before


# -- the report encoder ------------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and astral characters
report_text = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001d11e'),
    st.characters()), max_size=8)
report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | report_text,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(report_text, inner, max_size=4)),
    max_leaves=20)


@given(report_values)
@settings(max_examples=200, deadline=None)
def test_dumps_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True)
    assert _dumps(value, indent=2) == json.dumps(value, indent=2,
                                                 sort_keys=True)


def test_dumps_of_empty_containers_and_nesting():
    value = {"a": [], "b": {}, "c": [[], {}, ()], "": [{"x": None}]}
    for indent in (None, 2):
        assert _dumps(value, indent) == json.dumps(value, indent=indent,
                                                   sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {"x": [0.0]}, {1: "a"}, {"x", "y"}])
def test_dumps_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        _dumps(value)



# -- the benchmark's pinned spans --------------------------------------------


def benchmark_workloads():
    """(invocations, required spans, expected exit codes) of each workload
    that BENCHMARK.json lists, from perfbench/workloads.py."""
    path = os.path.join(HERE, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with open(os.path.join(HERE, "BENCHMARK.json")) as fh:
        listed = [w["name"] for w in json.load(fh)["workloads"]]
    with open(os.path.join(HERE, "perfbench", "expected.json")) as fh:
        expected = json.load(fh)
    return [pytest.param(workloads.WORKLOADS[name],
                         workloads.REQUIRED_SPANS[name],
                         [expected[workloads.invocation_key(argv)]["exit"]
                          for argv in workloads.WORKLOADS[name]], id=name)
            for name in listed]


def span_code(span):
    # "linalg.SqMat.__mul__" -> the code object of qortho.linalg.SqMat.__mul__
    module, *path = span.split(".")
    obj = importlib.import_module(f"qortho.{module}")
    for name in path:
        obj = getattr(obj, name)
    return obj.__code__


@pytest.mark.parametrize("invocations, spans, exits", benchmark_workloads())
def test_benchmark_workload_reaches_every_required_span(
        invocations, spans, exits):
    # the traced benchmark run fails on a required span with no calls;
    # replaying the workload in process catches a source change that stops
    # calling one before that run does
    codes = {span_code(span): span for span in spans}
    counts = dict.fromkeys(spans, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    results = []
    sys.setprofile(profile)
    try:
        for argv in invocations:
            results.append(main(list(argv) + ["--format", "json"],
                                out=io.StringIO(), err=io.StringIO()))
    finally:
        sys.setprofile(None)
    assert results == exits
    assert [span for span, n in counts.items() if not n] == []
