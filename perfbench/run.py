"""qortho CLI benchmark: time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 60 --trace 0

Run from the root of a source tree.  ``--trace 0`` runs the workload's
invocations as fresh ``python -m qortho ... --format json`` processes, back to
back from this one process (a closed loop with one client), repeating the
workload for up to ``--seconds``, and prints the end-to-end metrics.
``--trace 1`` replays the same invocations in-process, untraced, traced and
untraced again, and prints the per-layer metrics.  Every
invocation's exit code and stdout digest is checked against expected.json.
The last line of stdout is the JSON result; the lines before it are a
readable summary.  README.md describes the metrics.
"""

import argparse
import hashlib
import io
import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from spawn import child_env, run_timed  # noqa: E402
from workloads import (  # noqa: E402
    REQUIRED_SPANS, SETUP_ARGV, WORKLOADS, invocation_key,
)

EXPECTED = os.path.join(HERE, "expected.json")
FORMAT_ARGS = ("--format", "json")
INVOCATION_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
# A fixed pure-Python loop, run in a fresh interpreter between timed
# invocations.  It measures the host's speed at the time, and a change to
# the program does not change it.
CALIBRATION = ("-c", "s = 0\nfor i in range(3_500_000):\n    s += i * i\n")
# The loop's time on a host of the speed the end-to-end times are scaled to.
CALIBRATION_NOMINAL_S = 0.6


def cli_args(argv):
    return ("-m", "qortho") + tuple(argv) + FORMAT_ARGS


class Verdicts:
    """Checks exit codes and stdout digests against the recorded ones."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def check(self, argv, exit_code, sha256, timed_out=False, detail=""):
        self.attempted += 1
        want = self.expected[invocation_key(argv)]
        if timed_out:
            why = "timed out"
        elif exit_code != want["exit"]:
            why = f"exit {exit_code}, expected {want['exit']}"
        elif sha256 != want["sha256"]:
            why = "stdout digest differs from the recorded one"
        else:
            return
        tail = detail.strip().splitlines()[-1:] if detail else []
        self.failures.append(" ".join(argv) + ": " + why
                             + (f" ({tail[0]})" if tail else ""))

    def miss(self, argv, why):
        self.attempted += 1
        self.failures.append(" ".join(argv) + ": " + why)


def spawn_invocation(argv, verdicts, env, deadline):
    """Run and check one invocation; None if the deadline left no time.

    A wrong verdict still returns its Outcome: the time to a wrong answer is
    measured like any other, and the failure is reported through verdicts.
    """
    left = deadline - time.perf_counter()
    if left <= 0:
        verdicts.miss(argv, "not run: benchmark deadline reached")
        return None
    out = run_timed(cli_args(argv), env, ROOT, min(INVOCATION_TIMEOUT_S, left))
    verdicts.check(argv, out.exit_code, out.sha256, out.timed_out, out.stderr)
    return out


def calibrate(env):
    """Time one run of the fixed calibration loop in a fresh interpreter."""
    out = run_timed(CALIBRATION, env, ROOT, INVOCATION_TIMEOUT_S)
    if out.exit_code != 0:
        sys.exit(f"error: the calibration loop failed: {out.stderr}")
    return out.wall_s


def measure(workload, seed, seconds, verdicts, deadline):
    """Repeat the workload for up to ``seconds``; return end-to-end metrics.

    After the first, a repetition starts only if one as long as the last
    would end in time, so the run stays within ``seconds``.  The calibration
    loop runs before the first and after every timed invocation, and each
    invocation's time is scaled by CALIBRATION_NOMINAL_S over the mean of
    the two loops around it (README.md, Noise).  Returns the metrics and the
    unscaled figures.
    """
    env = child_env(SRC)
    invocations = list(WORKLOADS[workload])
    rng = random.Random(seed)
    # Untimed: writes the bytecode cache, so every timed start is alike.
    spawn_invocation(SETUP_ARGV, verdicts, env, deadline)
    calibration = [calibrate(env)]
    rss = []
    scaled = {argv: [] for argv in invocations + [SETUP_ARGV]}
    unscaled = {argv: [] for argv in scaled}

    def timed(argv):
        out = spawn_invocation(argv, verdicts, env, deadline)
        if out is None:
            return
        calibration.append(calibrate(env))
        host_s = (calibration[-2] + calibration[-1]) / 2
        rss.append(out.peak_rss_mb)
        scaled[argv].append(out.wall_s * CALIBRATION_NOMINAL_S / host_s)
        unscaled[argv].append(out.wall_s)

    for _ in range(SETUP_SAMPLES):
        timed(SETUP_ARGV)
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        began = time.perf_counter()
        order = invocations + [SETUP_ARGV]
        rng.shuffle(order)
        for argv in order:
            timed(argv)
        now = time.perf_counter()
        if now + (now - began) > start + seconds:
            break
    if not all(scaled.values()):
        return None, {}

    def figures(times):
        # Means, not medians: they varied less between runs.
        per_invocation = [statistics.fmean(times[argv])
                          for argv in invocations]
        return (sum(per_invocation), max(per_invocation),
                statistics.median(times[SETUP_ARGV]))

    wall, max_verdict, setup = figures(scaled)
    raw_wall, raw_max_verdict, raw_setup = figures(unscaled)
    metrics = {
        "wall_s": (wall, "s"),
        "max_verdict_s": (max_verdict, "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (setup, "s"),
    }
    return metrics, {
        "calibration_s": (statistics.fmean(calibration), "s"),
        "unscaled.wall_s": (raw_wall, "s"),
        "unscaled.max_verdict_s": (raw_max_verdict, "s"),
        "unscaled.setup_s": (raw_setup, "s"),
    }


def replay(invocations, verdicts):
    """Run the invocations in this process through ``qortho.cli.main``."""
    import qortho.cli
    t0 = time.perf_counter()
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        try:
            code = qortho.cli.main(list(argv) + list(FORMAT_ARGS), out=out,
                                   err=err)
        except Exception as exc:  # a crash is a wrong verdict, not the end
            code = f"crash: {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        verdicts.check(argv, code, digest, detail=err.getvalue())
    return time.perf_counter() - t0


def import_seconds(env):
    """Fresh-interpreter import of qortho.cli minus bare interpreter start."""
    def median_wall(args):
        return statistics.median(
            run_timed(args, env, ROOT, INVOCATION_TIMEOUT_S).wall_s
            for _ in range(IMPORT_SAMPLES))
    return median_wall(("-c", "import qortho.cli")) - median_wall(("-c", "pass"))


def trace(workload, seed, verdicts):
    """Untraced and traced in-process replays; return per-layer metrics."""
    from tracer import Tracer
    invocations = [SETUP_ARGV] + list(WORKLOADS[workload])
    random.Random(seed).shuffle(invocations)
    import_s = import_seconds(child_env(SRC))
    sys.path.insert(0, SRC)
    before = replay(invocations, verdicts)
    tracer = Tracer()
    tracer.install()
    traced_s = replay(invocations, verdicts)
    tracer.uninstall()
    # The untraced time is the mean of one replay before and one after the
    # traced one, so a warm-up or a drift in host speed does not read as
    # tracing overhead.
    untraced_s = (before + replay(invocations, verdicts)) / 2
    missing = [s for s in REQUIRED_SPANS[workload] if not tracer.calls[s]]
    if missing:
        raise SystemExit(f"traced run of {workload!r}: no calls recorded for "
                         f"required spans {missing}; a wrapper was bypassed")
    metrics = layer_metrics(tracer)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def layer_metrics(t):
    """The tracer's per-layer metrics as (value, unit) pairs."""
    from tracer import LAYERS
    calls = t.calls
    mul_calls = calls["scalars.Scalar.__mul__"]
    constructs = calls["scalars.Scalar.__init__"]
    m = {f"{layer}.self_s": (t.self_s[layer], "s") for layer in LAYERS}
    m.update({
        "scalars.mul_us": (1e6 * t.group_s["scalars.mul"] / mul_calls
                           if mul_calls else 0.0, "us"),
        "scalars.mul_calls": (mul_calls, "count"),
        "scalars.add_calls": (calls["scalars.Scalar.__add__"], "count"),
        "scalars.inv_calls": (calls["scalars.Scalar.inv"], "count"),
        "scalars.constructs": (constructs, "count"),
        "scalars.gcd_constructs": (t.gcd_constructs, "count"),
        "scalars.gcd_share": (t.gcd_constructs / constructs
                              if constructs else 0.0, "ratio"),
        "linalg.products": (t.products, "count"),
        "linalg.product_s": (t.product_s, "s"),
        "linalg.product_nnz_out": (t.product_nnz_out, "count"),
        "linalg.elim_calls": (sum(calls[n] for n in (
            "linalg.inverse", "linalg.rank", "linalg.antilinear_fixed_basis",
            "linalg.signature")), "count"),
        "linalg.elim_s": (t.group_s["linalg.elim"], "s"),
        "rmatrix.build_R_calls": (calls["rmatrix.build_R"], "count"),
        "rmatrix.build_s": (t.group_s["rmatrix.build"], "s"),
        "rmatrix.ybe_s": (t.group_s["rmatrix.ybe"], "s"),
        "realforms.classify_calls": (calls["realforms.classify"], "count"),
        "realforms.classify_s": (t.group_s["realforms.classify"], "s"),
        "realforms.sostar_calls": (calls["realforms.check_sostar"], "count"),
        "realforms.sostar_s": (t.group_s["realforms.sostar"], "s"),
        "qplane.relations_self_s": (t.group_s["qplane.relations"]
                                    - t.projectors_in_relations_s, "s"),
        "qplane.confluence_s": (t.group_s["qplane.confluence"], "s"),
        "qplane.normal_form_calls": (calls["qplane.normal_form"], "count"),
        "qplane.star_consistency_s": (t.group_s["qplane.star_consistency"],
                                      "s"),
    })
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qortho", "cli.py")):
        sys.exit(f"error: no qortho source tree at {SRC}")
    with open(EXPECTED) as fh:
        verdicts = Verdicts(json.load(fh))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    unscaled = {}
    if args.trace:
        metrics = trace(args.workload, args.seed, verdicts)
    else:
        metrics, unscaled = measure(args.workload, args.seed, args.seconds,
                                    verdicts, deadline)
    for line in verdicts.failures:
        print(f"FAIL {line}", file=sys.stderr)
    if metrics is None:
        sys.exit("error: the deadline passed before every invocation ran")
    failed = len(verdicts.failures)
    print(f"workload {args.workload}: {verdicts.attempted} invocations, "
          f"{failed} failed")
    summary = dict(metrics, **unscaled,
                   fail_frac=(failed / verdicts.attempted, "ratio"))
    for name, (value, unit) in sorted(summary.items()):
        print(f"  {name:<28} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": verdicts.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
