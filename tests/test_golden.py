"""Golden outputs: the exit code and JSON stdout of fixed CLI invocations.

Each case's stdout is stored verbatim in ``tests/golden/<name>.json`` and
its exit code in ``tests/golden/exit_codes.json``.  The test asserts byte
equality, so any change to a report, a rule set, a label or a scalar's
printed form shows up here.  Golden files change only together with a
stated reason for the output change; rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os

import pytest

from qortho.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")

CASES = {}
for _n in (3, 4):
    for _cmd in ("rmat", "ybe", "projectors", "verify-all"):
        CASES[f"{_cmd}_n{_n}"] = [_cmd, "--n", str(_n)]
for _n in (4, 5, 6):
    CASES[f"table_n{_n}_real"] = ["table", "--n", str(_n), "--regime", "real"]
for _n in (4, 5):
    CASES[f"table_n{_n}_unit"] = ["table", "--n", str(_n), "--regime", "unit"]
for _n in (3, 4, 5):
    CASES[f"plane_n{_n}"] = ["plane", "--n", str(_n)]
CASES.update({
    "plane-conj_n4_star_canonical": [
        "plane-conj", "--n", "4",
        "--spec", "base:star;autos:canonical;regime:real"],
    "plane-conj_n3_cross": [
        "plane-conj", "--n", "3", "--spec", "base:cross;autos:;regime:unit"],
    "quotient_plus": ["quotient", "--sign", "plus"],
    "quotient_minus": ["quotient", "--sign", "minus"],
    "quotient_plus_no-scaling": [
        "quotient", "--sign", "plus", "--no-scaling"],
    "quotient_minus_no-scaling": [
        "quotient", "--sign", "minus", "--no-scaling"],
    "classify_n4_star_canonical": [
        "classify", "--n", "4",
        "--spec", "base:star;autos:canonical;regime:real"],
    "classify_n5_star_dprime": [
        "classify", "--n", "5",
        "--spec", "base:star;autos:dprime:-+++-;regime:real"],
    "classify_n4_cross_canonical": [
        "classify", "--n", "4",
        "--spec", "base:cross;autos:canonical;regime:unit"],
    "classify_n6_star_dsecond_canonical": [
        "classify", "--n", "6",
        "--spec", "base:star;autos:dsecond:+++---,canonical;regime:real"],
    # beyond N = 4: non-monomial denominators and the t-extension at size
    "verify-all_n5": ["verify-all", "--n", "5"],
    "projectors_n6": ["projectors", "--n", "6"],
    "table_n8_real": ["table", "--n", "8", "--regime", "real"],
    "table_n8_unit": ["table", "--n", "8", "--regime", "unit"],
    "plane_n6": ["plane", "--n", "6"],
})


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv + ["--format", "json"], out=out, err=err)
    return code, out.getvalue().encode()


def golden_path(name):
    return os.path.join(GOLDEN, f"{name}.json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    code, stdout = run_case(CASES[name])
    with open(EXIT_CODES) as fh:
        assert code == json.load(fh)[name]
    with open(golden_path(name), "rb") as fh:
        assert stdout == fh.read()


def record():
    """Rewrite every golden file from the current code."""
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], stdout = run_case(argv)
        with open(golden_path(name), "wb") as fh:
            fh.write(stdout)
    with open(EXIT_CODES, "w") as fh:
        fh.write(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
