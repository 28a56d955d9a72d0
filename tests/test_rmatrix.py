"""R matrix, metric, and projector identities."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qortho.cli import _projector_checks
from qortho.errors import BadN
from qortho.linalg import SqMat, classical_mat, kron_embed, pack, rank
from qortho.rmatrix import (
    GroupShape, _integer_ybe, _kronecker_images, build_metric, build_R,
    build_rhat, build_rho, check_char_eq, check_r_reality, check_ybe,
    embed_13,
)
from qortho.scalars import ConjRegime, GaussRat, Scalar


def sp(k):
    """s^k, with s = q^(1/2)."""
    return Scalar.q_power(Fraction(k, 2))


ONE = Scalar.one()
Q = Scalar.q_power(1)
QI = Scalar.q_power(-1)
LAM = Q - QI


def R_(R, N, ab, cd):
    return R.get(pack(ab, N), pack(cd, N))


def test_rho_examples():
    assert build_rho(4) == [1, 0, 0, -1]
    assert build_rho(5) == [Fraction(3, 2), Fraction(1, 2), 0,
                            Fraction(-1, 2), Fraction(-3, 2)]
    assert build_rho(6) == [2, 1, 0, 0, -1, -2]
    for N in range(3, 10):
        rho = build_rho(N)
        for a in range(1, N + 1):
            assert rho[a - 1] + rho[N - a] == 0


def test_bad_n():
    with pytest.raises(BadN):
        build_rho(2)
    with pytest.raises(BadN):
        build_R(0)
    with pytest.raises(BadN):
        GroupShape(3.0)


def test_group_shape_keeps_each_value_and_is_frozen():
    shape = GroupShape(4)
    assert shape.C is shape.C and shape.C == build_metric(4)
    assert shape.R is shape.R and shape.R == build_R(4)
    assert shape.projectors is shape.projectors
    assert shape.projectors[4] == build_rhat(shape.R, 4)
    for name in ("N", "n", "odd", "n2", "_kept", "C", "R", "extra"):
        with pytest.raises(AttributeError):
            setattr(shape, name, None)
    with pytest.raises(AttributeError):
        del shape.N
    assert shape.N == 4 and shape.R == build_R(4)


def test_metric_entries():
    C3 = build_metric(3)
    assert C3.get(1, 3) == sp(-1)
    assert C3.get(2, 2) == ONE
    assert C3.get(3, 1) == sp(1)
    C4 = build_metric(4)
    assert C4.get(1, 4) == QI
    assert C4.get(2, 3) == ONE
    assert C4.get(3, 2) == ONE
    assert C4.get(4, 1) == Q
    assert len(C4.entries) == 4


def test_metric_self_inverse():
    for N in range(3, 8):
        C = build_metric(N)
        assert C * C == SqMat.identity(N)
        assert all(c == N + 1 - r for (r, c) in C.entries)


def test_r_entries_n3():
    R = build_R(3)
    assert R_(R, 3, (1, 1), (1, 1)) == Q
    assert R_(R, 3, (2, 2), (2, 2)) == ONE
    assert R_(R, 3, (1, 3), (1, 3)) == QI
    assert R_(R, 3, (3, 1), (1, 3)) == LAM * (ONE - QI)
    assert R_(R, 3, (2, 1), (1, 2)) == LAM
    assert R_(R, 3, (2, 2), (1, 3)) == -LAM * sp(-1)
    assert R_(R, 3, (1, 2), (2, 1)).is_zero()


def test_r_classical_identity():
    for N in range(3, 7):
        assert classical_mat(build_R(N)) == SqMat.identity(N * N)


def test_ybe_passes():
    for N in (3, 4, 5):
        ok, witness = check_ybe(build_R(N), N)
        assert ok and witness is None


def test_ybe_negative():
    N = 4
    R = build_R(N)
    bad = dict(R.entries)
    bad[(pack((1, 1), N), pack((1, 1), N))] = Q + ONE
    ok, witness = check_ybe(SqMat(N * N, bad), N)
    assert not ok
    assert witness == {"row": [1, 2, 3], "col": [1, 1, 4],
                       "lhs": "1*s^-4 + -1*s^0",
                       "rhs": "1*s^-6 + 1*s^-4 + -1*s^-2 + -1*s^0"}


def embeddings(R, N):
    return kron_embed(R, 1, N, 3), embed_13(R, N), kron_embed(R, 2, N, 3)


def product_verdict(R, N):
    R12, R13, R23 = embeddings(R, N)
    return R12 * R13 * R23 == R23 * R13 * R12


def integer_verdict(R, N):
    R12, R13, R23 = embeddings(R, N)
    return _integer_ybe(R, R12, R13, R23)


def flip(N):
    return SqMat(N * N, {(pack((a, b), N), pack((b, a), N)): ONE
                         for a in range(1, N + 1) for b in range(1, N + 1)})


int_laurent = st.dictionaries(
    st.integers(-3, 3), st.integers(-3, 3).filter(bool), min_size=1, max_size=3,
).map(lambda p: Scalar({e: GaussRat(c) for e, c in p.items()}))
# c s^j (s - 2^m) vanishes at s = 2^m: an entry that a too small k
# cannot tell from zero
vanishing_at_power_of_two = st.builds(
    lambda c, j, m: Scalar.from_frac(c) * sp(j)
    * (sp(1) - Scalar.from_frac(2 ** m)),
    st.integers(-2, 2).filter(bool), st.integers(-2, 2), st.integers(1, 24))


@st.composite
def ybe_solutions(draw):
    """(R, N): a known solution of the YBE scaled by c s^j, optionally with
    one entry perturbed by an integer Laurent polynomial."""
    N = draw(st.sampled_from((2, 3)))
    kinds = ["identity", "flip", "diagonal"] + (["so3"] if N == 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        R = SqMat.identity(N * N)
    elif kind == "flip":
        R = flip(N)
    elif kind == "diagonal":
        R = SqMat.diag(draw(st.lists(int_laurent, min_size=N * N,
                                     max_size=N * N)))
    else:
        R = build_R(3)
    unit = Scalar.from_frac(draw(st.integers(-3, 3).filter(bool)))
    R = R.scale(unit * sp(draw(st.integers(-3, 3))))
    if draw(st.booleans()):
        key = (draw(st.integers(1, N * N)), draw(st.integers(1, N * N)))
        entries = dict(R.entries)
        entries[key] = R.get(*key) + draw(int_laurent | vanishing_at_power_of_two)
        R = SqMat(N * N, entries)
    return R, N


@given(ybe_solutions())
@settings(max_examples=300, deadline=None)
def test_integer_verdict_equals_product_verdict(case):
    R, N = case
    assert integer_verdict(R, N) == product_verdict(R, N)


def row_norm(R):
    # largest sum of |coefficient| over the entries of one row
    norms = {}
    for (r, _), v in R.entries.items():
        norms[r] = norms.get(r, 0) + sum(abs(c.a) for c in v.n0.values())
    return max(norms.values())


@pytest.mark.parametrize("N", (3, 4))
def test_ybe_sides_obey_the_coefficient_bound(N):
    R = build_R(N)
    rho = row_norm(R)
    assert rho == 2 * N + 1
    R12, R13, R23 = embeddings(R, N)
    for side in (R12 * R13 * R23, R23 * R13 * R12):
        for v in side.entries.values():
            assert not v.n1 and v.d == {0: GaussRat(1)}
            assert all(c.d == 1 and not c.b and abs(c.a) <= rho ** 3
                       for c in v.n0.values())
    k, _ = _kronecker_images(R)
    assert 2 ** k > 8 * rho ** 3


def count_products(monkeypatch):
    calls = []
    product = SqMat.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(SqMat, "__mul__", counted)
    return calls


def test_integer_r_takes_no_scalar_product(monkeypatch):
    R = build_R(3)
    calls = count_products(monkeypatch)
    assert check_ybe(R, 3) == (True, None)
    assert not calls


@pytest.mark.parametrize("c", [
    Scalar.i_unit(), Scalar.from_frac(Fraction(1, 2)), Scalar.t_unit(),
], ids=["i", "half", "t"])
def test_non_integer_r_takes_the_product_path(monkeypatch, c):
    R = build_R(3).scale(c)
    assert _kronecker_images(R) is None
    calls = count_products(monkeypatch)
    assert check_ybe(R, 3) == (True, None)
    assert len(calls) == 4


def test_projector_algebra():
    for N in (3, 4, 5):
        den, P0, PA, PS, Rhat = GroupShape(N).projectors
        P0, PA, PS = (X.scale(den.inv()) for X in (P0, PA, PS))
        I = SqMat.identity(N * N)
        assert PA * PA == PA
        assert P0 * P0 == P0
        assert (PA * P0).is_zero() and (P0 * PA).is_zero()
        assert P0 + PA + PS == I
        assert PS * PS == PS
        assert P0.trace() == ONE
        assert rank(PA) == N * (N - 1) // 2
        # spectral decomposition of the flipped R matrix
        assert Rhat == Q * PS - QI * PA + Scalar.q_power(1 - N) * P0


def rational_projectors(N):
    # P0, PA, PS from the rational formulas, over q + q^-1 and D
    rho = build_rho(N)
    D = sum((Scalar.q_power(-2 * r) for r in rho), Scalar.zero())
    P0 = SqMat(N * N, {(pack((a, N + 1 - a), N), pack((c, N + 1 - c), N)):
                       Scalar.q_power(-rho[a - 1] - rho[c - 1]) / D
                       for a in range(1, N + 1) for c in range(1, N + 1)})
    Rhat = build_rhat(build_R(N), N)
    I = SqMat.identity(N * N)
    Einv = (Q + QI).inv()
    PA = (Q * I - Rhat - P0.scale(Q - Scalar.q_power(1 - N))).scale(Einv)
    PS = (Rhat + QI * I - P0.scale(QI + Scalar.q_power(1 - N))).scale(Einv)
    return P0, PA, PS


@pytest.mark.parametrize("N", range(3, 9))
def test_projectors_are_numerators_over_one_denominator(N):
    den, *numerators, _ = GroupShape(N).projectors
    assert not den.is_zero()
    for X, P in zip(numerators, rational_projectors(N)):
        assert all(v.d == {0: GaussRat(1)} for v in X.entries.values())
        assert X.scale(den.inv()) == P


def failing_projector_checks(N, den, P0, PA, PS, Rhat):
    shape = GroupShape(N)
    shape.once("projectors", lambda: (den, P0, PA, PS, Rhat))
    return {c["name"] for c in _projector_checks(shape) if not c["pass"]}


def test_cleared_projector_checks_fail_on_corrupted_numerators():
    N = 4
    den, P0, PA, PS, Rhat = GroupShape(N).projectors
    assert not failing_projector_checks(N, den, P0, PA, PS, Rhat)
    key = next(iter(PA.entries))
    bad = dict(PA.entries)
    bad[key] = bad[key] + ONE
    failed = failing_projector_checks(N, den, P0, SqMat(N * N, bad), PS, Rhat)
    assert {"pa_idempotent", "sum_is_identity"} <= failed
    failed = failing_projector_checks(N, den * (ONE + Q), P0, PA, PS, Rhat)
    assert {"pa_idempotent", "sum_is_identity"} <= failed


def test_char_eq():
    for N in (3, 4, 5, 6):
        assert check_char_eq(build_rhat(build_R(N), N), N)


def test_char_eq_negative():
    # the unflipped R does not satisfy the cubic
    N = 4
    R = build_R(N)
    I = SqMat.identity(N * N)
    prod = ((R - Q * I) * (R + QI * I) * (R - Scalar.q_power(1 - N) * I))
    assert not prod.is_zero()


def test_r_reality():
    for N in (3, 4, 5):
        shape = GroupShape(N)
        assert check_r_reality(shape.R, shape, ConjRegime.REAL_Q)
        assert check_r_reality(shape.R, shape, ConjRegime.UNIT_MODULUS_Q)


def test_r_reality_negative():
    N = 4
    R = build_R(N)
    bad = dict(R.entries)
    key = (pack((1, 1), N), pack((1, 1), N))
    bad[key] = bad[key] * Scalar.i_unit()
    assert not check_r_reality(SqMat(N * N, bad), GroupShape(N),
                               ConjRegime.REAL_Q)


def test_rhat_flip():
    for N in (3, 4):
        R = build_R(N)
        Rhat = build_rhat(R, N)
        assert len(Rhat.entries) == len(R.entries)
        for a, b, c, d in itertools.product(range(1, N + 1), repeat=4):
            assert R_(Rhat, N, (a, b), (c, d)) == R_(R, N, (b, a), (c, d))
