"""Command-line front end: builds objects, runs check suites, and emits
deterministic text or JSON reports with pass/fail exit codes."""

import gc
import os
import sys
from _json import encode_basestring_ascii as _quote
from types import SimpleNamespace

from . import __version__
from .errors import (
    BadFamily, BadN, NoPlaneConjugation, NotInvolution, QorthoError,
    Unclassifiable,
)
from .linalg import SqMat, classical_mat, products_equal, rank
from .qplane import check_confluence, check_star_consistency, \
    plane_relations, quotient_check, rules_json
from .realforms import (
    CROSS, STAR, ConjugationSpec, auto_from_signs, canonical_D,
    check_auto_conditions, check_reality, classify, count_real_forms,
    enumerate_autos, plane_conjugation_matrix,
)
from .rmatrix import GroupShape, check_char_eq, check_r_reality, check_ybe
from .scalars import ConjRegime, Scalar

YBE_CAP = 12

CONJ_GRAMMAR = ("base:star|cross;autos:canonical[,dprime:<+-string>]"
                "[,dsecond:<+-string>];regime:real|unit")


class _UsageError(Exception):
    pass


def _parse_regime(text):
    try:
        return ConjRegime(text)
    except ValueError:
        raise _UsageError(f"regime must be real or unit, got {text!r}")


def parse_conjugation(text, N):
    """Conjugation spec from the compact grammar

    base:star|cross;autos:canonical[,dprime:<+->][,dsecond:<+->];regime:real|unit

    Sign strings give all N signs; the autos field may be empty or omitted.
    """
    base = regime = None
    autos = []
    seen = set()
    for field in text.split(";"):
        key, colon, value = field.partition(":")
        if not colon or key in seen:
            raise _UsageError(f"malformed conjugation field {field!r}")
        seen.add(key)
        if key == "base":
            if value not in (STAR, CROSS):
                raise _UsageError(f"base must be star or cross, got {value!r}")
            base = value
        elif key == "regime":
            regime = _parse_regime(value)
        elif key == "autos":
            for item in value.split(","):
                if not item:
                    continue
                name, _, signs = item.partition(":")
                if name == "canonical":
                    autos.append(canonical_D(N))
                elif name in ("dprime", "dsecond"):
                    if len(signs) != N or set(signs) - set("+-"):
                        raise _UsageError(
                            f"{name} needs {N} signs from +-, got {signs!r}")
                    autos.append(auto_from_signs(N, name, signs))
                else:
                    raise _UsageError(f"unknown automorphism {item!r}")
        else:
            raise _UsageError(f"unknown conjugation field {key!r}")
    if base is None or regime is None:
        raise _UsageError("conjugation spec needs base and regime fields")
    try:
        return ConjugationSpec(base, autos, regime)
    except ValueError as exc:
        raise _UsageError(str(exc))


# -- report assembly -----------------------------------------------------------


def _check(name, ok, witness=None, data=None):
    entry = {"name": name, "pass": bool(ok)}
    if witness is not None:
        entry["witness"] = witness
    if data is not None:
        entry["data"] = data
    return entry


def _report(command, n, checks, regime=None):
    rep = {"command": command, "n": n, "checks": checks,
           "version": __version__}
    if regime is not None:
        rep["regime"] = regime.value
    return rep


def _dumps(x, indent=None, level=0):
    """json.dumps(x, indent=indent, sort_keys=True) for dicts with str
    keys, lists, tuples, str, int, bool and None; TypeError for any other
    value.  Strings are escaped by `_json.encode_basestring_ascii`, the
    escaper json.dumps calls, and importing json would cost every run the
    compiling of its regexes."""
    if isinstance(x, str):
        return _quote(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, dict):
        if not all(isinstance(k, str) for k in x):
            raise TypeError("JSON object keys must be str")
        brackets = "{}"
        items = [f"{_quote(k)}: {_dumps(v, indent, level + 1)}"
                 for k, v in sorted(x.items())]
    elif isinstance(x, (list, tuple)):
        brackets = "[]"
        items = [_dumps(v, indent, level + 1) for v in x]
    else:
        raise TypeError(f"{type(x).__name__} is not a JSON report value")
    if not items or indent is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = "\n" + " " * (indent * (level + 1))
    return (brackets[0] + pad + ("," + pad).join(items) + "\n"
            + " " * (indent * level) + brackets[1])


def _emit_report(rep, fmt, out):
    if fmt == "json":
        out.write(_dumps(rep, indent=2) + "\n")
        return
    head = f"{rep['command']} N={rep['n']}"
    if "regime" in rep:
        head += f" regime={rep['regime']}"
    out.write(head + "\n")
    for c in rep["checks"]:
        out.write(f"check {c['name']}: {'pass' if c['pass'] else 'FAIL'}\n")
        if "witness" in c:
            out.write("  witness: " + _dumps(c["witness"]) + "\n")
    ok = all(c["pass"] for c in rep["checks"])
    out.write(f"overall: {'pass' if ok else 'FAIL'}\n")


def _emit_table(result, N, regime, fmt, out, err):
    if fmt == "json":
        out.write(_dumps(result.rows, indent=2) + "\n")
        if result.caveat:
            err.write(f"note: {result.caveat}\n")
        return
    out.write(f"real forms N={N} regime={regime.value}\n")
    for row in result.rows:
        sig = row["signature"]
        sig_txt = f"({sig[0]},{sig[1]})" if sig else "-"
        autos = ",".join(row["spec"]["autos"]) or "none"
        out.write(f"  {row['label']:<10} signature={sig_txt:<8} "
                  f"{row['spec']['base']};{autos}\n")
    out.write(f"total: {result.count}\n")
    if result.caveat:
        out.write(f"note: {result.caveat}\n")


# -- subcommand bodies -----------------------------------------------------------


def _require_ybe_n(args):
    # the N^3 x N^3 Yang-Baxter products are capped unless --force is given
    if args.n > YBE_CAP and not args.force:
        raise _UsageError(
            f"N={args.n} exceeds the cap {YBE_CAP}; pass --force to override")


def _metric_checks(shape):
    N, C = shape.N, shape.C
    I = SqMat.identity(N)
    perm = SqMat(N, {(a, shape.prime(a)): Scalar.one()
                     for a in range(1, N + 1)})
    anti = all(c == shape.prime(r) for r, c in C.entries)
    return [
        _check("metric_self_inverse", C * C == I),
        _check("metric_antidiagonal", anti),
        _check("metric_classical_limit", classical_mat(C) == perm),
    ]


def cmd_rmat(args):
    shape = GroupShape(args.n)
    R = shape.R
    checks = [_check("build", True,
                     data={"dimension": R.dim, "nonzero": len(R.entries)})]
    checks += _metric_checks(shape)
    return _report("rmat", args.n, checks)


def cmd_ybe(args):
    _require_ybe_n(args)
    ok, witness = check_ybe(GroupShape(args.n).R, args.n)
    return _report("ybe", args.n, [_check("ybe", ok, witness)])


def _projector_checks(shape):
    # each projector is its numerator over den != 0, and
    # (X/den)(Y/den) = Z/den exactly when X Y = Z (den I)
    N = shape.N
    den, P0, PA, PS, Rhat = shape.projectors
    den_I = SqMat.identity(N * N).scale(den)
    trace = P0.trace() * den.inv()
    rank_pa = rank(shape.pa_rows)
    return [
        _check("p0_idempotent", products_equal([P0, P0], [P0, den_I])),
        _check("pa_idempotent", products_equal([PA, PA], [PA, den_I])),
        _check("pa_p0_orthogonal",
               products_equal([PA, P0]) and products_equal([P0, PA])),
        _check("sum_is_identity", P0 + PA + PS == den_I),
        _check("trace_p0", trace == Scalar.one(),
               data={"trace": str(trace)}),
        _check("rank_pa", rank_pa == N * (N - 1) // 2,
               data={"rank": rank_pa}),
        _check("char_eq", check_char_eq(Rhat, N)),
    ]


def cmd_projectors(args):
    return _report("projectors", args.n,
                   _projector_checks(GroupShape(args.n)))


def cmd_classify(args):
    shape = GroupShape(args.n)
    spec = parse_conjugation(args.spec, args.n)
    try:
        check = _check("classify", True, data=classify(spec, shape).to_json())
    except (Unclassifiable, NotInvolution) as exc:
        check = _check("classify", False, witness={"error": str(exc)})
    return _report("classify", args.n, [check], spec.regime)


def cmd_table(args):
    regime = _parse_regime(args.regime)
    return count_real_forms(args.n, regime), regime


def cmd_plane(args):
    rs = plane_relations(GroupShape(args.n))
    ok, witness = check_confluence(rs)
    checks = [
        _check("relations", len(rs.pair_rules) == args.n * (args.n - 1) // 2,
               data={"count": len(rs.pair_rules), "rules": rules_json(rs)}),
        _check("confluent", ok, witness),
    ]
    return _report("plane", args.n, checks)


def cmd_plane_conj(args):
    shape = GroupShape(args.n)
    spec = parse_conjugation(args.spec, args.n)
    try:
        K = plane_conjugation_matrix(spec, shape)
    except NoPlaneConjugation as exc:
        raise _UsageError(f"no plane conjugation: {exc}")
    rs = plane_relations(shape)
    entries = {f"{r},{c}": str(v) for (r, c), v in sorted(K.entries.items())}
    ok = check_star_consistency(rs, K, spec.regime)
    return _report("plane-conj", args.n,
                   [_check("star_consistency", ok, data={"K": entries})],
                   spec.regime)


def cmd_quotient(args):
    sign = 1 if args.sign == "plus" else -1
    ok = quotient_check(sign, include_scaling=not args.no_scaling)
    return _report("quotient", 4,
                   [_check("quotient", ok,
                           data={"sign": args.sign,
                                 "scaling": not args.no_scaling})])


def _auto_suite_check(shape):
    N = shape.N
    members = [canonical_D(N)] + enumerate_autos(N, "dprime")
    if not shape.odd:
        members += enumerate_autos(N, "dsecond")
    for m in members:
        ok, witness = check_auto_conditions(m.mono, shape)
        if not ok:
            return _check("automorphism_families", False,
                          witness=dict(witness, member=m.tag()))
        for base in (STAR, CROSS):
            if not check_reality(m.mono, base, shape):
                return _check("automorphism_families", False,
                              witness={"member": m.tag(),
                                       "condition": f"reality_{base}"})
    return _check("automorphism_families", True,
                  data={"members": len(members)})


def cmd_verify_all(args):
    _require_ybe_n(args)
    shape = GroupShape(args.n)
    checks = _metric_checks(shape)
    ok, witness = check_ybe(shape.R, args.n)
    checks.append(_check("ybe", ok, witness))
    checks += _projector_checks(shape)
    for name, regime in (("r_reality_real", ConjRegime.REAL_Q),
                         ("r_reality_unit", ConjRegime.UNIT_MODULUS_Q)):
        checks.append(_check(name, check_r_reality(shape.R, shape, regime)))
    checks.append(_auto_suite_check(shape))
    ok, witness = check_confluence(plane_relations(shape))
    checks.append(_check("plane_confluent", ok, witness))
    return _report("verify-all", args.n, checks)


# -- driver ---------------------------------------------------------------------


# Each command's flags: an int, a free string, a tuple of choices, or a bool
# switch.  Every flag that takes a value is required; a switch defaults to
# off.  The commands run as the functions cmd_<name>, looked up by name when
# they run, so a patched or wrapped cmd_* is the one called.
COMMANDS = {
    "rmat": {"--n": int},
    "ybe": {"--n": int, "--force": bool},
    "projectors": {"--n": int},
    "classify": {"--n": int, "--spec": str},
    "table": {"--n": int, "--regime": ("real", "unit")},
    "plane": {"--n": int},
    "plane-conj": {"--n": int, "--spec": str},
    "quotient": {"--sign": ("plus", "minus"), "--no-scaling": bool},
    "verify-all": {"--n": int, "--force": bool},
}
FORMATS = ("json", "text")


def _usage():
    lines = ["usage: qortho [--format json|text] <command> [flags]", "",
             "Exact checks for quantum orthogonal groups, their real forms, "
             "and quantum planes.", "", "commands:"]
    for command, flags in COMMANDS.items():
        words = [command]
        for name, kind in flags.items():
            if kind is bool:
                words.append(f"[{name}]")
            elif isinstance(kind, tuple):
                words.append(f"{name} {'|'.join(kind)}")
            else:
                words.append(f"{name} {name[2:].upper()}")
        lines.append("  " + " ".join(words))
    lines += ["", f"Conjugation grammar (SPEC): {CONJ_GRAMMAR}.",
              "Sign strings list all N signs.  Output format: --format or "
              "QORTHO_FORMAT (json|text, default text).", ""]
    return "\n".join(lines)


def _flag_value(name, kind, value):
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise _UsageError(f"{name} needs an integer, got {value!r}")
    if isinstance(kind, tuple) and value not in kind:
        raise _UsageError(
            f"{name} must be one of {', '.join(kind)}, got {value!r}")
    return value


def _parse_argv(argv):
    """The command and flag values of argv as a namespace, or None when
    -h/--help asks for the usage text.  --format may come before or after
    the command, and a flag's value may follow as the next word or after
    '='; a repeated flag keeps its last value."""
    command, values = None, {}
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return None
        if not word.startswith("-"):
            if command is not None:
                raise _UsageError(f"unexpected argument {word!r}")
            if word not in COMMANDS:
                raise _UsageError(f"unknown command {word!r}; choose from "
                                  + ", ".join(COMMANDS))
            command = word
            continue
        name, eq, value = word.partition("=")
        kind = (FORMATS if name == "--format"
                else COMMANDS.get(command, {}).get(name))
        if kind is None:
            raise _UsageError(f"unknown flag {name!r}"
                              + (f" for {command}" if command
                                 else " before the command"))
        if kind is bool:
            if eq:
                raise _UsageError(f"{name} takes no value")
            values[name] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None:
                raise _UsageError(f"{name} needs a value")
        values[name] = _flag_value(name, kind, value)
    if command is None:
        raise _UsageError("missing command; choose from " + ", ".join(COMMANDS))
    args = SimpleNamespace(command=command, format=values.get("--format"))
    for name, kind in COMMANDS[command].items():
        if kind is not bool and name not in values:
            raise _UsageError(f"{command} needs {name}")
        setattr(args, name[2:].replace("-", "_"), values.get(name, False))
    return args


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            out.write(_usage())
            return 0
        fmt = args.format or os.environ.get("QORTHO_FORMAT", "text")
        if fmt not in FORMATS:
            raise _UsageError(
                f"QORTHO_FORMAT must be json or text, got {fmt!r}")
        result = globals()["cmd_" + args.command.replace("-", "_")](args)
    except (_UsageError, BadFamily, BadN) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except QorthoError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except Exception as exc:
        # a bug, not a failed check: keep it apart from exit code 1;
        # traceback is imported here only, as it slows every start-up
        import traceback
        traceback.print_exc(file=err)
        err.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return 3
    if args.command == "table":
        table, regime = result
        _emit_table(table, args.n, regime, fmt, out, err)
        return 0
    _emit_report(result, fmt, out)
    return 0 if all(c["pass"] for c in result["checks"]) else 1


def console():
    """Entry point of `python -m qortho` and the `qortho` script: run main,
    then exit with its code.  Just before the exit, `gc.freeze()` moves
    every live object to the permanent generation, so the collections that
    interpreter finalization runs skip the run's heap.  Streams are still
    flushed and atexit handlers still run (os._exit would skip both).  Only
    this process-level entry freezes; main() leaves the collector alone,
    as the tests and in-process replays call it."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console()
