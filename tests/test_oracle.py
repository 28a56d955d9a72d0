"""An evaluation oracle for the projector layer.

Every projector entry is an integer Laurent polynomial in s, so evaluating
it at a rational point s0 is a ring homomorphism: an identity that holds
in the package holds between the evaluated matrices too.  The evaluation
reads each entry's coefficient fields and does all arithmetic with
`Fraction`s on plain dicts, so it shares no code with the scalar kernel,
`SqMat` products or the integer path that decides these identities."""

from fractions import Fraction

import pytest

from qortho.linalg import SqMat, _rows, rank, row_reduce
from qortho.rmatrix import GroupShape

POINTS = (Fraction(2), Fraction(3))


def at(v, s0):
    """The value at s = s0 of an entry with integer coefficients, no t and
    denominator 1, from its fields."""
    (e0, d0), = v.d.items()
    assert not v.n1 and e0 == 0 and d0.a == 1 and d0.d == 1 and not d0.b
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
