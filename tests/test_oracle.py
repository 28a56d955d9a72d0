"""Outside checks of the constructions: R and C from the closed formula,
and an evaluation oracle for the projector layer.

R and C are built in sympy's field Q(i)(s) straight from the FRT formula,
without calling `rmatrix`, and compared with `build_R` and `build_metric`
entry by entry.

Every projector entry is an integer Laurent polynomial in s, so evaluating
it at a rational point s0 is a ring homomorphism: an identity that holds
in the package holds between the evaluated matrices too.  The evaluation
reads each entry's coefficient fields and does all arithmetic with
`Fraction`s on plain dicts, so it shares no code with the scalar kernel,
`SqMat` products or the integer path that decides these identities."""

from fractions import Fraction

import pytest

from qortho.linalg import SqMat, _rows, rank, row_reduce
from qortho.rmatrix import GroupShape, build_metric, build_R

POINTS = (Fraction(2), Fraction(3))


def at(v, s0):
    """The value at s = s0 of an entry with integer coefficients and
    denominator 1, from its fields."""
    (e0, d0), = v.d.items()
    assert e0 == 0 and d0.a == 1 and d0.d == 1 and not d0.b
    assert all(not c.b for c in v.n0.values())
    return sum(Fraction(c.a, c.d) * s0 ** e for e, c in v.n0.items())


def evaluate(X, s0):
    rows = {}
    for (r, c), v in X.entries.items():
        rows.setdefault(r, {})[c] = at(v, s0)
    return rows


def dropping_zeros(rows):
    out = {i: {j: x for j, x in row.items() if x} for i, row in rows.items()}
    return {i: row for i, row in out.items() if row}


def times(A, B):
    out = {}
    for i, row in A.items():
        acc = out[i] = {}
        for k, a in row.items():
            for j, b in B.get(k, {}).items():
                acc[j] = acc.get(j, 0) + a * b
    return dropping_zeros(out)


def plus(*mats):
    out = {}
    for M in mats:
        for i, row in M.items():
            acc = out.setdefault(i, {})
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + x
    return dropping_zeros(out)


def scaled(c, M):
    return {i: {j: c * x for j, x in row.items()} for i, row in M.items()}


def identity(dim, c=Fraction(1)):
    return {i: {i: c} for i in range(1, dim + 1)}


@pytest.mark.parametrize("N", [3, 4])
def test_r_and_c_match_the_frt_formula(N):
    # q = s^2, lam = q - 1/q, a' = N + 1 - a, and rho_a = N/2 - a below
    # the middle, 0 at the middle index of odd N, -rho_a' above it
    sympy = pytest.importorskip("sympy")
    field, s = sympy.field("s", sympy.QQ_I)
    q, prime = s ** 2, (lambda a: N + 1 - a)
    lam = q - 1 / q

    def rho(a):
        if a < prime(a):
            return Fraction(N, 2) - a
        return 0 if a == prime(a) else -rho(prime(a))

    def q_power(x):
        return s ** int(2 * x)  # rho is half-integral, so 2x is an int

    def at(a, b):  # the composite index of e_a (x) e_b
        return (a - 1) * N + b

    R = {}

    def put(a, b, c, d, x):  # x e_ab (x) e_cd
        key = (at(a, c), at(b, d))
        R[key] = R.get(key, field.zero) + x

    rng = range(1, N + 1)
    for a in rng:
        if a != prime(a):
            put(a, a, a, a, q)
            put(a, a, prime(a), prime(a), 1 / q)
        for b in rng:
            if b not in (a, prime(a)):
                put(a, a, b, b, field.one)
            if a > b:
                put(a, b, b, a, lam)
                put(a, b, prime(a), prime(b), -lam * q_power(rho(a) - rho(b)))
    if N % 2:
        m = (N + 1) // 2
        put(m, m, m, m, field.one)
    C = {(a, prime(a)): q_power(-rho(a)) for a in rng}

    def value(v):
        return (sum((QQ_I(c) * s ** k for k, c in v.n0.items()), field.zero)
                / sum((QQ_I(c) * s ** k for k, c in v.d.items()), field.zero))

    def QQ_I(c):
        return sympy.QQ_I(sympy.QQ(c.a, c.d), sympy.QQ(c.b, c.d))

    for built, expected in ((build_R(N), R), (build_metric(N), C)):
        for key in set(built.entries) | set(expected):
            x = built.entries.get(key)
            diff = (field.zero if x is None else value(x)) \
                - expected.get(key, field.zero)
            assert not diff.numer, (N, key)


@pytest.mark.parametrize("s0", POINTS, ids=str)
@pytest.mark.parametrize("N", range(3, 7))
def test_projector_identities_hold_at_rational_points(N, s0):
    den, P0, PA, PS, Rhat = GroupShape(N).projectors
    d = at(den, s0)
    assert d
    P0, PA, PS, Rhat = (evaluate(X, s0) for X in (P0, PA, PS, Rhat))
    dim = N * N
    assert times(P0, P0) == scaled(d, P0)
    assert times(PA, PA) == scaled(d, PA)
    assert times(PS, PS) == scaled(d, PS)
    assert times(PA, P0) == {} and times(P0, PA) == {}
    assert plus(P0, PA, PS) == identity(dim, d)
    q = s0 ** 2
    cubic = times(times(plus(Rhat, identity(dim, -q)),
                        plus(Rhat, identity(dim, 1 / q))),
                  plus(Rhat, identity(dim, -q ** (1 - N))))
    assert cubic == {}
    # the trace of P0 / den is 1 and P_A / den has rank N(N-1)/2: its trace
    assert sum(P0.get(i, {}).get(i, 0) for i in range(1, dim + 1)) == d
    assert sum(PA.get(i, {}).get(i, 0)
               for i in range(1, dim + 1)) == d * N * (N - 1) / 2


@pytest.mark.parametrize("N", range(3, 9))
def test_pa_rows_are_pa_rows_without_the_factor_d(N):
    # shape.pa_rows is reduced from rows free of the factor D; P_A's own
    # numerator rows carry D and reduce to the same basis, with each row
    # at the index of the row that opened it
    shape = GroupShape(N)
    basis = row_reduce(_rows(shape.projectors[2]))
    assert shape.pa_rows == SqMat(N * N, {
        (index + 1, c + 1): v for _, row, index in basis
        for c, v in row.items()})
    assert rank(shape.pa_rows) == N * (N - 1) // 2
