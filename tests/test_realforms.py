from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qortho.errors import (
    BadFamily, DimMismatch, NoPlaneConjugation, Unclassifiable,
)
from qortho.linalg import (
    SqMat, bar_mat, classical_mat, first_diff, inverse, kron_embed,
)
from qortho.realforms import (
    CROSS, STAR, AutoMatrix, ConjugationSpec, RealFormLabel, auto_from_signs,
    build_mpp, canonical_D, check_auto_conditions, check_equivalence_witness,
    check_reality, check_sostar, check_sostar_basis, classify,
    count_real_forms, dsecond_canonical, enumerate_autos,
    plane_conjugation_matrix, symplectic_j, _Monomial, _diff,
    _match_up_to_unit, _monomial, _r_commutation_witness,
)
from qortho.rmatrix import GroupShape, build_metric
from qortho.scalars import _T_SQUARED, ConjRegime, GaussRat, Scalar

REAL = ConjRegime.REAL_Q
UNIT = ConjRegime.UNIT_MODULUS_Q

one = Scalar.one()
iu = Scalar.i_unit()


def star(autos):
    return ConjugationSpec(STAR, autos, REAL)


def cross(autos):
    return ConjugationSpec(CROSS, autos, UNIT)


# -- families ------------------------------------------------------------


def test_canonical_even_is_middle_swap():
    D = canonical_D(4)
    assert D.mat == SqMat(4, {(1, 1): one, (2, 3): one, (3, 2): one, (4, 4): one})
    assert D.square_sign == 1
    assert D.mat * D.mat == SqMat.identity(4)


def test_canonical_odd_flips_middle_sign():
    D = canonical_D(5)
    assert D.mat == SqMat.diag([one, one, -one, one, one])
    assert D.mat * D.mat == SqMat.identity(5)


def test_dprime_counts_and_order():
    assert len(enumerate_autos(5, "dprime")) == 4
    assert len(enumerate_autos(7, "dprime")) == 8
    assert len(enumerate_autos(4, "dprime")) == 2
    assert len(enumerate_autos(6, "dprime")) == 4
    first = enumerate_autos(6, "dprime")[0]
    assert first.eps == (1,) * 6  # all-plus comes first
    assert first.mat == SqMat.identity(6)


def test_dprime_respects_prime_symmetry_and_middle():
    for N in (4, 5, 6, 7):
        for dp in enumerate_autos(N, "dprime"):
            eps = dp.eps
            assert all(eps[a] == eps[N - 1 - a] for a in range(N))
            if N % 2:
                assert eps[(N - 1) // 2] == 1
            else:
                assert eps[N // 2 - 1] == 1 and eps[N // 2] == 1


def test_dsecond_counts_and_squares():
    ds = enumerate_autos(4, "dsecond")
    assert len(ds) == 2
    assert [d.eps for d in ds] == [(1, 1, -1, -1), (-1, 1, -1, 1)]
    for d in ds:
        assert d.square_sign == -1
        assert d.mat * d.mat == -SqMat.identity(4)
    assert len(enumerate_autos(8, "dsecond")) == 8


def test_dsecond_rejected_for_odd_N():
    with pytest.raises(BadFamily):
        enumerate_autos(5, "dsecond")


def test_bad_sign_vectors_rejected():
    with pytest.raises(BadFamily):
        auto_from_signs(4, "dprime", "+-+-")  # breaks eps_j = eps_j'
    with pytest.raises(BadFamily):
        auto_from_signs(5, "dprime", "++-++")  # middle must be +
    with pytest.raises(BadFamily):
        auto_from_signs(4, "dsecond", "++--"[::-1])
    with pytest.raises(BadFamily):
        enumerate_autos(4, "nope")


def test_auto_from_signs_roundtrip():
    for N, fam in ((5, "dprime"), (6, "dprime"), (6, "dsecond")):
        for a in enumerate_autos(N, fam):
            signs = a.tag().split(":")[1]
            b = auto_from_signs(N, fam, signs)
            assert a == b


# -- automorphism conditions ----------------------------------------------


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_families_satisfy_auto_conditions(N):
    autos = [canonical_D(N)] + enumerate_autos(N, "dprime")
    if N % 2 == 0:
        autos += enumerate_autos(N, "dsecond")
    shape = GroupShape(N)
    I = SqMat.identity(N)
    for a in autos:
        assert check_auto_conditions(a.mat, shape) == (True, None)
        assert a.mat * a.mat == (I if a.square_sign > 0 else -I)


def test_auto_conditions_reject_bad_diagonal():
    bad = SqMat.diag([one, one, one, Scalar.from_frac(2)])
    assert check_auto_conditions(bad, GroupShape(4)) == (False, {
        "condition": "DCD",
        "detail": {"row": 1, "col": 4, "lhs": "2*s^-2", "rhs": "1*s^-2"}})


# -- the monomial form against SqMat products -------------------------------

# i^k for k = 0..3, and the non-unit moduli a weight is drawn with
UNITS = (GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1))
MODULI = (GaussRat(1), GaussRat(2), GaussRat(Fraction(1, 2)), GaussRat(1, 1))


def weight(c, e):
    return Scalar.from_gauss(c) * Scalar.q_power(Fraction(e, 2))


@st.composite
def monomials(draw, N, max_exponent):
    """A monomial N x N matrix with weights c s^e, c = i^k m, |e| <=
    max_exponent, and the modulus m from MODULI in half the draws, 1 in the
    others.  Half the draws keep the metric: a permutation fixing rho (the
    identity, or the swap of n and n + 1 for even N) and w_a w_a' = 1, the
    matrices that reach the R commutation and D^2 = +-1."""
    moduli = MODULI if draw(st.booleans()) else MODULI[:1]
    c = [UNITS[k] * m for k, m in zip(
        draw(st.lists(st.integers(0, 3), min_size=N, max_size=N)),
        draw(st.lists(st.sampled_from(moduli), min_size=N, max_size=N)))]
    e = draw(st.lists(st.integers(-max_exponent, max_exponent),
                      min_size=N, max_size=N))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(N)))
    else:
        perm = list(range(N))
        if N % 2 == 0 and draw(st.booleans()):
            perm[N // 2 - 1], perm[N // 2] = N // 2, N // 2 - 1
        for a in range((N + 1) // 2):
            if a == N - 1 - a:
                c[a], e[a] = draw(st.sampled_from(UNITS[::2])), 0  # +-1
            else:
                c[N - 1 - a], e[N - 1 - a] = c[a].inv(), -e[a]
    return SqMat(N, {(r + 1, perm[r] + 1): weight(c[r], e[r])
                     for r in range(N)})


@st.composite
def monomial_cases(draw, max_exponent=0):
    N = draw(st.integers(3, 6))
    return N, draw(monomials(N, max_exponent)), draw(monomials(N, max_exponent))


def product_witness(X, Y):
    diff = first_diff(X, Y)
    if diff is None:
        return None
    r, c, xv, yv = diff
    return {"row": r, "col": c, "lhs": str(xv), "rhs": str(yv)}


def tensor_square(A, N):
    return kron_embed(A, 1, N, 2) * kron_embed(A, 2, N, 2)


def product_commutation_witness(A, shape):
    AA = tensor_square(A, shape.N)
    return product_witness(shape.R * AA, AA * shape.R)


def product_auto_conditions(mat, shape):
    """`check_auto_conditions` from SqMat products alone, with A (x) A built
    by `kron_embed`: the reference for the monomial path's verdict and for
    every witness."""
    N, C = shape.N, shape.C
    for X in (mat.transpose() * C * mat, mat * C * mat.transpose()):
        if X != C:
            return False, {"condition": "DCD", "detail": product_witness(X, C)}
    detail = product_commutation_witness(mat, shape)
    if detail is not None:
        return False, {"condition": "RDD", "detail": detail}
    I = SqMat.identity(N)
    sq = mat * mat
    if sq != I and sq != -I:
        return False, {"condition": "square", "detail": product_witness(sq, I)}
    return True, None


def product_reality(mat, base, shape):
    barD, sq, I = bar_mat(mat, REAL), mat * mat, SqMat.identity(shape.N)
    if base == CROSS:
        return (barD == mat and sq == I) or (barD == -mat and sq == -I)
    return barD == shape.C.transpose() * mat * shape.C.transpose()


UNIT_SCALARS = (one, -one, iu, -iu)


def product_match_up_to_unit(X, Y):
    """Unit scalar lam with X = lam * Y, or None, on SqMats."""
    if X.dim != Y.dim or set(X.entries) != set(Y.entries):
        return None
    if X.is_zero():
        return one
    key = min(X.entries)
    ratio = X.entries[key] / Y.entries[key]
    for lam in UNIT_SCALARS:
        if ratio == lam:
            return lam if X == lam * Y else None
    return None


def product_equivalence_witness(A, spec1, spec2, shape):
    """`check_equivalence_witness` from SqMat products alone: the reference
    for the monomial path's verdict and witnesses."""
    N, C = shape.N, shape.C
    detail = product_commutation_witness(A, shape)
    if detail is not None:
        return False, {"condition": "RDD", "detail": detail}
    X = A.transpose() * C * A
    Y = A * C * A.transpose()
    if not ((X == C and Y == C) or (X == -C and Y == -C)):
        return False, {"condition": "metric",
                       "detail": product_witness(Y, X) or product_witness(X, C)}
    G1, G2 = spec1._composed(N).sqmat(), spec2._composed(N).sqmat()
    barA = bar_mat(A, spec1.regime)
    if spec1.base == STAR:
        lhs, rhs = C.transpose() * G1 * A, barA * C.transpose() * G2
    else:
        lhs, rhs = G1 * A, barA * G2
    if product_match_up_to_unit(lhs, rhs) is None:
        return False, {"condition": "transport",
                       "detail": product_witness(lhs, rhs)}
    return True, None


def family_specs(N):
    """Every star and cross spec of one family member at N, plus none."""
    members = [canonical_D(N)] + enumerate_autos(N, "dprime")
    if N % 2 == 0:
        members += enumerate_autos(N, "dsecond")
    return [make([a]) for make in (star, cross) for a in members] + [
        star([]), cross([])]


def test_monomial_auto_verdict_and_witness_match_products():
    verdicts = set()

    @settings(max_examples=150, deadline=None)
    @given(monomial_cases())
    def check(case):
        N, A, _ = case
        shape = GroupShape(N)
        expected = product_auto_conditions(A, shape)
        assert check_auto_conditions(A, shape) == expected
        verdicts.add(expected[0])
        assert (_r_commutation_witness(_monomial(A), shape)
                == product_commutation_witness(A, shape))
        for base in (STAR, CROSS):
            assert check_reality(A, base, shape) == product_reality(A, base,
                                                                    shape)

    check()
    assert verdicts == {True, False}


def test_monomial_equivalence_witness_matches_products():
    verdicts = set()

    @settings(max_examples=100, deadline=None)
    @given(monomial_cases(), st.data())
    def check(case, data):
        N, A, _ = case
        shape = GroupShape(N)
        specs = family_specs(N)
        spec1 = data.draw(st.sampled_from(specs))
        spec2 = data.draw(st.sampled_from(
            [s for s in specs if s.base == spec1.base]))
        expected = product_equivalence_witness(A, spec1, spec2, shape)
        assert check_equivalence_witness(A, spec1, spec2, shape) == expected
        verdicts.add(expected[0])

    check()
    assert verdicts == {True, False}


@settings(max_examples=100, deadline=None)
@given(monomial_cases(max_exponent=2))
def test_monomial_form_matches_sqmat_algebra(case):
    # weights c s^e: products, transposes, bar in both regimes, negation,
    # equality, the first difference and the match up to a unit agree with
    # SqMat, and so does the relabeling
    N, X, Y = case
    shape = GroupShape(N)
    x, y = _monomial(X), _monomial(Y)
    assert x.sqmat() == X
    assert _monomial(X * Y) == x * y
    assert _monomial(X.transpose()) == x.transpose()
    assert _monomial(-X) == -x
    for regime in (REAL, UNIT):
        assert _monomial(bar_mat(X, regime)) == x.bar(regime)
    assert (x == y) == (X == Y)
    assert _diff(x, y) == product_witness(X, Y)
    assert (_match_up_to_unit(x, y)
            == (product_match_up_to_unit(X, Y) is not None))
    AA = tensor_square(X, N)
    assert ((_r_commutation_witness(x, shape) is None)
            == (shape.R * AA == AA * shape.R))


def test_monomial_form_rejects_other_matrices():
    two = Scalar.from_frac(2)
    s = Scalar.q_power(Fraction(1, 2))
    for weight_, c, e in ((two, GaussRat(2), 0),                  # weight 2
                          (two.inv(), GaussRat(Fraction(1, 2)), 0),  # 1/2
                          (s.inv() * two, GaussRat(2), -1)):     # 2 s^-1
        m = _monomial(SqMat.diag([one, one, weight_]))
        assert (m.perm, m.c[2], m.e[2]) == ((0, 1, 2), c, e)
    for bad in (SqMat.diag([one, one, one + s]),          # two terms
                SqMat.diag([one, one, one / (one + s)]),  # a denominator
                SqMat.diag([one, one, s / (s - iu)]),     # s/(s - i)
                SqMat(3, {(1, 1): one, (2, 2): one}),     # a zero row
                SqMat(3, {(1, 1): one, (2, 1): one, (3, 3): one})):
        assert _monomial(bad) is None
    m = _monomial(SqMat(3, {(1, 2): one, (2, 1): -iu, (3, 3): s}))
    assert (m.perm, m.c, m.e) == ((1, 0, 2), (UNITS[0], UNITS[3], UNITS[0]),
                                  (0, 0, 1))


# each non-monomial matrix, with the TypeError message that names it
NON_MONOMIAL = [
    (SqMat.diag([one, one, one + Scalar.q_power(1), one]),
     "entry (3,3) = 1*s^0 + 1*s^2 is not c*s^e"),
    (SqMat.diag([one, one / (one + Scalar.q_power(Fraction(1, 2))), one, one]),
     "entry (2,2) = (1*s^0)/(1*s^0 + 1*s^1) is not c*s^e"),
    (SqMat(4, {(1, 1): one, (2, 2): one, (4, 4): one}), "row 3 is zero"),
    (SqMat(4, {(1, 1): one, (2, 2): one, (3, 2): one, (4, 4): one}),
     "entry (3,2) is a second nonzero in its row or column"),
]


@pytest.mark.parametrize("mat, why", NON_MONOMIAL)
def test_non_monomial_input_raises_type_error(mat, why):
    shape = GroupShape(4)
    message = f"not a monomial matrix: {why}"
    calls = [lambda: check_auto_conditions(mat, shape),
             lambda: check_reality(mat, STAR, shape),
             lambda: check_reality(mat, CROSS, shape),
             lambda: check_equivalence_witness(mat, cross([]), cross([]),
                                               shape),
             lambda: AutoMatrix("dprime", 4, (1, 1, 1, 1), mat, 1)]
    for call in calls:
        with pytest.raises(TypeError) as exc:
            call()
        assert str(exc.value) == message


def test_monomial_form_names_the_first_offending_entry():
    # entries read in storage order are reported in (row, col) order
    s = Scalar.q_power(1)
    mat = SqMat(3, {(3, 3): one + s, (2, 1): one, (1, 1): one,
                    (2, 2): one / (one + s)})
    with pytest.raises(TypeError, match=r"entry \(2,1\) is a second nonzero "
                                        r"in its row or column$"):
        check_auto_conditions(mat, GroupShape(3))


def test_composed_sharp_dprime_squares_to_plus_one():
    for N in (4, 6):
        D = canonical_D(N)
        for dp in enumerate_autos(N, "dprime"):
            G = ConjugationSpec(STAR, [D, dp], REAL)._composed(N).sqmat()
            assert G * G == SqMat.identity(N)


# -- reality conditions ----------------------------------------------------


def test_reality_all_families_star():
    for N in (4, 5, 6):
        assert check_reality(canonical_D(N).mat, STAR, GroupShape(N))
        for dp in enumerate_autos(N, "dprime"):
            assert check_reality(dp.mat, STAR, GroupShape(N))
        if N % 2 == 0:
            for ds in enumerate_autos(N, "dsecond"):
                assert check_reality(ds.mat, STAR, GroupShape(N))


def test_reality_all_families_cross():
    for N in (4, 5, 6):
        assert check_reality(canonical_D(N).mat, CROSS, GroupShape(N))
        for dp in enumerate_autos(N, "dprime"):
            assert check_reality(dp.mat, CROSS, GroupShape(N))
        if N % 2 == 0:
            for ds in enumerate_autos(N, "dsecond"):
                assert check_reality(ds.mat, CROSS, GroupShape(N))


def test_reality_negatives():
    two = Scalar.from_frac(2)
    assert not check_reality(two * SqMat.identity(4), CROSS, GroupShape(4))
    skew = SqMat.diag([-one, one, one, one])  # not prime-symmetric
    assert not check_reality(skew, STAR, GroupShape(4))


# -- plane conjugation matrix ----------------------------------------------


def test_plane_matrix_star_sharp_N4():
    K = plane_conjugation_matrix(star([canonical_D(4)]), GroupShape(4))
    q = Scalar.q_power(1)
    assert K == SqMat(4, {(1, 4): q, (2, 2): one, (3, 3): one,
                          (4, 1): Scalar.q_power(-1)})


def test_plane_matrix_star_plain_is_metric_transpose():
    for N in (3, 4, 5):
        K = plane_conjugation_matrix(star([]), GroupShape(N))
        assert K == build_metric(N).transpose()


def test_plane_matrix_cross_is_composed_auto():
    D = canonical_D(5)
    assert plane_conjugation_matrix(cross([D]), GroupShape(5)) == D.mat


def test_plane_matrix_refused_for_imaginary_family():
    with pytest.raises(NoPlaneConjugation):
        plane_conjugation_matrix(star([dsecond_canonical(4)]), GroupShape(4))


def test_spec_regime_consistency_enforced():
    with pytest.raises(ValueError):
        ConjugationSpec(STAR, [], UNIT)
    with pytest.raises(ValueError):
        ConjugationSpec(CROSS, [], REAL)


# -- classification ---------------------------------------------------------


def test_classify_star_plain_is_compact():
    assert classify(star([]), GroupShape(4)) == RealFormLabel.so(4, 0, REAL)
    assert str(classify(star([]), GroupShape(5))) == "SO(5,0)"


def test_classify_star_sharp_N4_is_lorentz():
    assert str(classify(star([canonical_D(4)]), GroupShape(4))) == "SO(3,1)"


def test_classify_cross_fixtures():
    assert str(classify(cross([canonical_D(4)]), GroupShape(4))) == "SO(3,1)"
    assert str(classify(cross([]), GroupShape(4))) == "SO(2,2)"
    assert str(classify(cross([]), GroupShape(5))) == "SO(3,2)"


def test_classify_composes_and_squares_g_once(monkeypatch):
    # K comes from the G that classify already holds, not from a second
    # composition in plane_conjugation_matrix; G is squared as a _Monomial
    composed, product = ConjugationSpec._composed, _Monomial.__mul__
    compositions, squares = [], []

    def counted_composed(self, N):
        compositions.append(N)
        return composed(self, N)

    def counted_product(self, other):
        if self is other:
            squares.append(self)
        return product(self, other)

    monkeypatch.setattr(ConjugationSpec, "_composed", counted_composed)
    monkeypatch.setattr(_Monomial, "__mul__", counted_product)
    for spec, N, label in ((star([canonical_D(4)]), 4, "SO(3,1)"),
                           (cross([]), 5, "SO(3,2)")):
        compositions.clear()
        squares.clear()
        assert str(classify(spec, GroupShape(N))) == label
        assert compositions == [N] and len(squares) == 1


def count_products(monkeypatch):
    """The left factor of every SqMat product taken from here on."""
    calls, product = [], SqMat.__mul__

    def counted(self, other):
        calls.append(self)
        return product(self, other)

    monkeypatch.setattr(SqMat, "__mul__", counted)
    return calls


def test_monomial_checks_take_no_sqmat_product(monkeypatch):
    # a failing family member, a failing equivalence witness, step (iii) of
    # check_sostar and the plane conjugation all run on the monomial form
    shape = GroupShape(4)
    dseconds = enumerate_autos(4, "dsecond")
    assert check_sostar(shape, dseconds[0])  # steps (i), (ii): once per shape
    torus = SqMat.diag([Scalar.from_frac(2), one, one,
                        Scalar.from_frac(Fraction(1, 2))])
    pair_swap = SqMat(4, {(1, 2): one, (2, 1): one, (3, 4): one, (4, 3): one})
    calls = count_products(monkeypatch)
    assert check_auto_conditions(torus, shape)[1]["condition"] == "square"
    ok, witness = check_equivalence_witness(pair_swap, cross([]), cross([]),
                                            shape)
    assert not ok and witness["condition"] == "RDD"
    assert all(check_sostar(shape, ds) for ds in dseconds)
    plane_conjugation_matrix(star([canonical_D(4)]), shape)
    assert calls == []


def family_members(N):
    members = [canonical_D(N)] + enumerate_autos(N, "dprime")
    return members + (enumerate_autos(N, "dsecond") if N % 2 == 0 else [])


@pytest.mark.parametrize("N", range(4, 9))
def test_family_suite_parses_no_matrix_and_builds_no_sqmat(N, monkeypatch):
    # a member is held as its _Monomial from construction to verdict
    import qortho.cli as cli
    import qortho.realforms as realforms
    shape = GroupShape(N)
    realforms._monomial_C(shape)  # C is parsed once per shape, not here
    calls, parse, sqmat = [], realforms._parse, _Monomial.sqmat
    monkeypatch.setattr(realforms, "_parse",
                        lambda *args: calls.append("parse") or parse(*args))
    monkeypatch.setattr(_Monomial, "sqmat",
                        lambda self: calls.append("sqmat") or sqmat(self))
    check = cli._auto_suite_check(shape)
    assert check["pass"] and check["data"]["members"] == len(family_members(N))
    assert calls == []


@pytest.mark.parametrize("N", range(3, 9))
def test_family_suite_transposes_each_member_once(N, monkeypatch):
    # the DCD check of check_auto_conditions forms D^t once per member
    import qortho.cli as cli
    shape = GroupShape(N)
    members = family_members(N)
    monos = {id(m.mono) for m in members}
    transposes = []
    transpose = _Monomial.transpose
    # the suite checks these members, whose monomials are known here
    monkeypatch.setattr(cli, "canonical_D", lambda N: members[0])
    monkeypatch.setattr(cli, "enumerate_autos", lambda N, family: [
        m for m in members if m.family == family])
    monkeypatch.setattr(_Monomial, "transpose", lambda self: (
        transposes.append(id(self)) if id(self) in monos else None)
        or transpose(self))
    check = cli._auto_suite_check(shape)
    assert check["pass"] and check["data"]["members"] == len(members)
    assert sorted(transposes) == sorted(monos)


@pytest.mark.parametrize("N", range(3, 9))
def test_member_checks_give_the_same_result_for_mono_and_mat(N):
    # each member, and each times diag(s, 1, ..., 1, 1/s), which keeps the
    # metric and fails D^2 = +-1, as a _Monomial and as the SqMat derived
    shape = GroupShape(N)
    torus = _Monomial(range(N), [GaussRat(1)] * N, [1] + [0] * (N - 2) + [-1])
    verdicts = set()
    for m in family_members(N):
        assert _monomial(m.mat) == m.mono
        for X in (m.mono, m.mono * torus):
            mat = X.sqmat()
            result = check_auto_conditions(X, shape)
            assert result == check_auto_conditions(mat, shape)
            verdicts.add(result[0] or result[1]["condition"])
            for base in (STAR, CROSS):
                assert check_reality(X, base, shape) == \
                    check_reality(mat, base, shape)
    assert verdicts == {True, "square"}


def test_monomial_of_another_dimension_raises_dim_mismatch():
    with pytest.raises(DimMismatch, match=r"^matrix of dim 5 for N=4$"):
        check_auto_conditions(_Monomial.identity(5), GroupShape(4))


@pytest.mark.parametrize("N", range(3, 11))
def test_classical_C_is_taken_once_from_the_monomial_C(N, monkeypatch):
    import qortho.realforms as realforms
    shape = GroupShape(N)
    C1 = classical_mat(shape.C)
    specs = [star([dp]) for dp in enumerate_autos(N, "dprime")] + [cross([])]
    dseconds = enumerate_autos(N, "dsecond") if N % 2 == 0 else []
    if dseconds:
        assert check_sostar(shape, dseconds[0])  # steps (i), (ii): once
    taken = []
    monkeypatch.setattr(realforms, "classical_mat",
                        lambda A: taken.append(A) or classical_mat(A))
    for spec in specs:
        classify(spec, shape)
    assert all(check_sostar(shape, ds) for ds in dseconds)
    assert len(taken) == len(specs)  # K's alone, one per spec
    assert all(A is not shape.C for A in taken)
    assert realforms._classical_C(shape) is realforms._classical_C(shape)
    assert realforms._classical_C(shape) == _monomial(C1)
    assert realforms._classical_C(shape).sqmat() == C1


def test_classify_multiplies_only_for_fixed_basis_and_signature(monkeypatch):
    import qortho.realforms as realforms
    fixed_basis, entered = realforms.antilinear_fixed_basis, []

    def counted_fixed_basis(K):
        entered.append(K)
        return fixed_basis(K)

    monkeypatch.setattr(realforms, "antilinear_fixed_basis",
                        counted_fixed_basis)
    shape6 = GroupShape(6)
    assert check_sostar(shape6, dsecond_canonical(6))  # steps (i), (ii)
    calls = count_products(monkeypatch)
    for spec, N in ((star([canonical_D(4)]), 4), (cross([]), 5),
                    (star([auto_from_signs(6, "dprime", "-++++-")]), 6)):
        entered.clear()
        calls.clear()
        classify(spec, GroupShape(N))
        assert len(entered) == 1 and calls
        assert calls[0] is entered[0]  # the first product is K bar(K)
    calls.clear()
    entered.clear()
    assert str(classify(star([dsecond_canonical(6)]), shape6)) == "SO*(6)"
    with pytest.raises(Unclassifiable):
        classify(star([dsecond_canonical(6), canonical_D(6)]), shape6)
    assert calls == [] and entered == []


def test_classify_odd_dprime_gives_so21():
    dp = auto_from_signs(3, "dprime", "-+-")
    assert str(classify(star([dp]), GroupShape(3))) == "SO(2,1)"


def test_witness_pair_shares_label_odd_cross():
    # the sharp twist relabels the metric but not the real form
    shape = GroupShape(5)
    assert classify(cross([canonical_D(5)]), shape) == classify(cross([]), shape)


def test_classify_sostar():
    lab = classify(star([dsecond_canonical(4)]), GroupShape(4))
    assert lab == RealFormLabel.sostar(4, REAL)
    assert str(lab) == "SO*(4)"
    for ds in enumerate_autos(6, "dsecond"):
        assert str(classify(star([ds]), GroupShape(6))) == "SO*(6)"


def test_classify_rejects_cross_with_imaginary_family():
    spec = ConjugationSpec(CROSS, [dsecond_canonical(4)], UNIT)
    with pytest.raises(Unclassifiable, match="SO\\* branch needs base star"):
        classify(spec, GroupShape(4))


def test_unclassifiable_names_the_entry_of_g_squared():
    # G = D''_1 D has G^2 = diag(-1, -1, 1, 1, -1, -1): neither +I nor -I
    spec = star([auto_from_signs(6, "dsecond", "+++---"), canonical_D(6)])
    with pytest.raises(Unclassifiable) as exc:
        classify(spec, GroupShape(6))
    assert str(exc.value).endswith(
        ": G^2 = I fails at (1,1): -1*s^0 != 1*s^0;"
        " G^2 = -I fails at (3,3): 1*s^0 != -1*s^0")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_unclassifiable_message_matches_first_diff(data):
    # G = D'' D (in either order, with further members) squares to neither
    # +I nor -I; the message names first_diff's entry for each
    N = data.draw(st.sampled_from((4, 6)))
    members = ([canonical_D(N)] + enumerate_autos(N, "dprime")
               + enumerate_autos(N, "dsecond"))
    autos = [data.draw(st.sampled_from(enumerate_autos(N, "dsecond"))),
             canonical_D(N)]
    autos += data.draw(st.lists(st.sampled_from(members), max_size=2))
    spec = data.draw(st.sampled_from((star, cross)))(
        data.draw(st.permutations(autos)))
    G = spec._composed(N).sqmat()
    G2, I = G * G, SqMat.identity(N)
    assume(G2 != I and G2 != -I)
    fails = []
    for name, target in (("I", I), ("-I", -I)):
        r, c, x, y = first_diff(G2, target)
        fails.append(f"G^2 = {name} fails at ({r},{c}): {x} != {y}")
    with pytest.raises(Unclassifiable) as exc:
        classify(spec, GroupShape(N))
    assert str(exc.value) == (f"no classification branch applies to "
                              f"{spec!r}: {'; '.join(fails)}")


def test_label_signature_normalized():
    lab = RealFormLabel.so(1, 3, REAL)
    assert lab.signature == (3, 1)
    assert str(lab) == "SO(3,1)"


# -- SO* structure -----------------------------------------------------------


@pytest.mark.parametrize("N", [4, 6, 8])
def test_sostar_checks_pass(N):
    # step (iii) reduces every D'' to D''_1 through its pair-swap witness
    shape = GroupShape(N)
    for ds in enumerate_autos(N, "dsecond"):
        assert check_sostar(shape, ds)


def test_sostar_metric_normalization():
    # M'' = t N'' takes the metric to the identity at q = 1; with
    # M''^-1 = N''^-1 / t, the product in N'' comes over t^2
    for N in (4, 6):
        Ninv = inverse(build_mpp(N))
        X = Ninv.transpose() * build_metric(N) * Ninv
        assert classical_mat(X.scale(_T_SQUARED.inv())) == SqMat.identity(N)


@pytest.mark.parametrize("N", [4, 6, 8, 10])
def test_sostar_basis_fails_on_every_single_entry_change(N):
    # N'' passes; negating, rotating by i or dropping one of its entries,
    # or filling one empty slot, fails
    shape, Npp = GroupShape(N), build_mpp(N)
    assert check_sostar_basis(Npp, shape)
    changes = []
    for r in range(1, N + 1):
        for c in range(1, N + 1):
            v = Npp.get(r, c)
            if v.is_zero():
                changes.append((r, c, Scalar.from_frac(Fraction(1, 2))))
            else:
                changes += [(r, c, -v), (r, c, iu * v), (r, c, Scalar.zero())]
    for r, c, w in changes:
        entries = dict(Npp.entries)
        entries[(r, c)] = w
        assert not check_sostar_basis(SqMat(N, entries), shape), (r, c, w)


def test_sostar_transport_hits_symplectic_form():
    N = 4
    Mpp = build_mpp(N)
    X = classical_mat(bar_mat(Mpp, REAL) * build_metric(N).transpose()
                      * dsecond_canonical(N).mat * inverse(Mpp))
    assert X == symplectic_j(N)


def test_sostar_unit_scalar_absorbs_sign_of_J():
    N = 4
    Mpp = build_mpp(N)
    X = classical_mat(bar_mat(Mpp, REAL) * build_metric(N).transpose()
                      * dsecond_canonical(N).mat * inverse(Mpp))
    assert _match_up_to_unit(_monomial(X), _monomial(-symplectic_j(N)))


def test_sostar_fails_on_corrupted_basis():
    N = 4
    Mpp = build_mpp(N)
    entries = dict(Mpp.entries)
    for c in (1, 4):  # flip the sign of the first basis row
        entries[(1, c)] = -entries[(1, c)]
    assert not check_sostar_basis(SqMat(N, entries), GroupShape(N))


# -- equivalence witnesses ----------------------------------------------------


def odd_cross_witness(N):
    n = (N - 1) // 2
    return SqMat.diag([iu] * n + [one] + [-iu] * n)


@pytest.mark.parametrize("N", [3, 5, 7])
def test_witness_odd_cross_sharp_vs_plain(N):
    A = odd_cross_witness(N)
    assert check_equivalence_witness(A, cross([canonical_D(N)]), cross([]),
                                     GroupShape(N)) == (True, None)


@pytest.mark.parametrize("N", [4, 6, 8])
def test_witness_even_star_sharp_dprime_pairs(N):
    n = N // 2
    shape = GroupShape(N)
    A = SqMat.diag([-one] * n + [one] * n)
    D = canonical_D(N)
    for dp in enumerate_autos(N, "dprime"):
        if dp.eps[0] != 1:
            continue
        partner_signs = "".join(
            "-" if (e == 1) != (j in (n - 1, n)) else "+"
            for j, e in enumerate(dp.eps))
        dp2 = auto_from_signs(N, "dprime", partner_signs)
        assert check_equivalence_witness(A, star([D, dp]), star([D, dp2]),
                                         shape) == (True, None)
        assert classify(star([D, dp]), shape) == classify(star([D, dp2]), shape)


@pytest.mark.parametrize("N", [4, 6, 8])
def test_witness_imaginary_reduction_at_q1(N):
    # The pair swap A reduces every D'' to D''_1 at q = 1 only: there R = 1
    # and the identities below are the whole witness check.  At generic q,
    # A fails the R commutation unless it is the identity.
    n = N // 2
    shape = GroupShape(N)
    C1 = classical_mat(shape.C)
    target = dsecond_canonical(N)
    for ds in enumerate_autos(N, "dsecond"):
        entries = {}
        for j in range(1, n + 1):
            jp = shape.prime(j)
            if ds.eps[j - 1] == -1:
                entries[(j, jp)] = one
                entries[(jp, j)] = one
            else:
                entries[(j, j)] = one
                entries[(jp, jp)] = one
        A = SqMat(N, entries)
        assert A * ds.mat == target.mat * A
        assert A.transpose() * C1 * A == C1 and A * C1 * A.transpose() == C1
        lhs = C1.transpose() * star([ds])._composed(N).sqmat() * A
        rhs = (bar_mat(A, REAL) * C1.transpose()
               * star([target])._composed(N).sqmat())
        assert _match_up_to_unit(_monomial(lhs), _monomial(rhs))
        assert check_sostar(shape, ds)
        ok, witness = check_equivalence_witness(A, star([ds]), star([target]),
                                                shape)
        if A == SqMat.identity(N):
            assert (ok, witness) == (True, None)
        else:
            assert not ok and witness["condition"] == "RDD"


def test_witness_identity_fails_between_distinct_specs():
    ok, witness = check_equivalence_witness(
        SqMat.identity(5), cross([canonical_D(5)]), cross([]), GroupShape(5))
    assert not ok
    assert witness == {"condition": "transport", "detail": {
        "row": 3, "col": 3, "lhs": "-1*s^0", "rhs": "1*s^0"}}


def test_witness_requires_automorphism():
    two = Scalar.from_frac(2)
    A = SqMat.diag([one, two, one, one])
    ok, witness = check_equivalence_witness(A, cross([]), cross([]),
                                            GroupShape(4))
    assert not ok
    assert witness["condition"] == "RDD"
    assert witness["detail"] is not None
    # 2I commutes with R but scales the metric by 4
    ok, witness = check_equivalence_witness(
        SqMat.identity(4).scale(two), cross([]), cross([]), GroupShape(4))
    assert (ok, witness) == (False, {"condition": "metric", "detail": {
        "row": 1, "col": 4, "lhs": "4*s^-2", "rhs": "1*s^-2"}})


def test_witness_requires_matching_base():
    with pytest.raises(ValueError):
        check_equivalence_witness(SqMat.identity(4), star([]), cross([]),
                                  GroupShape(4))


# -- counting -----------------------------------------------------------------


def test_count_real_odd():
    res = count_real_forms(5, REAL)
    assert res.count == 4
    assert res.caveat is None
    labels = [r["label"] for r in res.rows]
    assert "SO(5,0)" in labels
    assert all(lab.startswith("SO(") for lab in labels)
    specs = [tuple(r["spec"]["autos"]) for r in res.rows]
    assert len(set(specs)) == 4


def test_count_real_even_N4():
    res = count_real_forms(4, REAL)
    assert res.count == 5
    labels = sorted(r["label"] for r in res.rows)
    assert labels == ["SO(2,2)", "SO(3,1)", "SO(4,0)", "SO*(4)", "SO*(4)"]
    sig = {r["label"]: r["signature"] for r in res.rows}
    assert sig["SO(3,1)"] == [3, 1]
    assert sig["SO*(4)"] is None


def test_count_real_even_N6():
    res = count_real_forms(6, REAL)
    assert res.count == 10  # 2^3 + 2^1
    assert sum(r["label"] == "SO*(6)" for r in res.rows) == 4


def test_count_unit():
    assert count_real_forms(5, UNIT).count == 1
    assert count_real_forms(7, UNIT).count == 1
    res = count_real_forms(4, UNIT)
    assert res.count == 2
    assert sorted(r["label"] for r in res.rows) == ["SO(2,2)", "SO(3,1)"]
    res6 = count_real_forms(6, UNIT)
    assert sorted(r["label"] for r in res6.rows) == ["SO(3,3)", "SO(4,2)"]


def test_count_flags_triality_dimension():
    assert count_real_forms(8, REAL).caveat is not None
    assert count_real_forms(8, UNIT).caveat is not None
    assert count_real_forms(6, REAL).caveat is None


def test_count_rows_carry_spec_json():
    row = count_real_forms(5, REAL).rows[0]
    assert row["spec"]["base"] == "star"
    assert row["spec"]["regime"] == "real"
    assert isinstance(row["spec"]["autos"], list)
