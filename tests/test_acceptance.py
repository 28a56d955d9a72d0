"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single [PASS]/[FAIL]
line (visible under `pytest -s` or in the captured output).  All comparisons
are exact; there are no numerical tolerances anywhere.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from qortho.linalg import SqMat, classical_mat, rank
from qortho.qplane import (
    NCPoly, RewriteSystem, check_confluence, check_star_consistency,
    normal_form, plane_relations, quotient_check,
)
from qortho.realforms import (
    CROSS, STAR, ConjugationSpec, auto_from_signs, canonical_D,
    check_auto_conditions, check_equivalence_witness, check_reality,
    check_sostar, classify, count_real_forms, dsecond_canonical,
    enumerate_autos, plane_conjugation_matrix,
)
from qortho.rmatrix import (
    GroupShape, build_metric, build_R, build_rho, check_char_eq,
    check_r_reality, check_ybe,
)
from qortho.scalars import ConjRegime, Scalar

REAL = ConjRegime.REAL_Q
UNIT = ConjRegime.UNIT_MODULUS_Q

one = Scalar.one()
iu = Scalar.i_unit()
q = Scalar.q_power(1)
s = Scalar.q_power(Fraction(1, 2))
lam = q - Scalar.q_power(-1)


def star(autos):
    return ConjugationSpec(STAR, autos, REAL)


def cross(autos):
    return ConjugationSpec(CROSS, autos, UNIT)


@contextmanager
def acceptance(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_01_yang_baxter_identity_holds_up_to_n7():
    with acceptance("01 Yang-Baxter identity exact for N=3..7 in under 60s"):
        start = time.monotonic()
        for N in range(3, 8):
            ok, witness = check_ybe(build_R(N), N)
            assert ok and witness is None, (N, witness)
        assert time.monotonic() - start < 60.0


def test_02_metric_is_selfinverse_antidiagonal_with_permutation_limit():
    with acceptance("02 metric self-inverse, antidiagonal, classical "
                    "permutation limit for N=3..8"):
        for N in range(3, 9):
            shape = GroupShape(N)
            rho = build_rho(N)
            C = build_metric(N)
            expected = SqMat(N, {
                (a, shape.prime(a)): Scalar.q_power(-rho[a - 1])
                for a in range(1, N + 1)})
            assert C == expected, N
            assert C * C == SqMat.identity(N), N
            perm = SqMat(N, {(a, shape.prime(a)): one
                             for a in range(1, N + 1)})
            assert classical_mat(C) == perm, N


def test_03_projector_algebra_and_characteristic_equation():
    with acceptance("03 projector idempotence, orthogonality, completeness, "
                    "trace, rank, cubic identity for N=3..6"):
        for N in range(3, 7):
            den, P0, PA, PS, Rhat = GroupShape(N).projectors
            P0, PA, PS = (X.scale(den.inv()) for X in (P0, PA, PS))
            I = SqMat.identity(N * N)
            zero = SqMat(N * N, {})
            assert PA * PA == PA, N
            assert P0 * P0 == P0, N
            assert PA * P0 == zero and P0 * PA == zero, N
            assert P0 + PA + PS == I, N
            trace = Scalar.zero()
            for k in range(1, N * N + 1):
                trace = trace + P0.get(k, k)
            assert trace == one, N
            assert rank(PA) == N * (N - 1) // 2, N
            assert check_char_eq(Rhat, N), N


def test_04_r_matrix_reality_in_both_regimes():
    with acceptance("04 R-matrix reality for unit-modulus and real q, "
                    "N=3..6"):
        for N in range(3, 7):
            shape = GroupShape(N)
            assert check_r_reality(shape.R, shape, UNIT), N
            assert check_r_reality(shape.R, shape, REAL), N


def _all_family_members(N):
    members = [canonical_D(N)] + enumerate_autos(N, "dprime")
    if N % 2 == 0:
        members += enumerate_autos(N, "dsecond")
    return members


def test_05_automorphism_families_pass_and_corruptions_fail():
    with acceptance("05 automorphism families pass commutation, metric, "
                    "square, reality for N=3..8; corrupted controls fail"):
        for N in range(3, 9):
            shape = GroupShape(N)
            I = SqMat.identity(N)
            for m in _all_family_members(N):
                assert check_auto_conditions(m.mat, shape) == (True, None), \
                    (N, m.tag())
                assert m.mat * m.mat == (I if m.square_sign > 0 else -I), \
                    (N, m.tag())
                assert check_reality(m.mat, STAR, shape), (N, m.tag())
                assert check_reality(m.mat, CROSS, shape), (N, m.tag())
        # one corrupted matrix per family, each must fail with a witness
        bad_entries = dict(canonical_D(4).mat.entries)
        bad_entries[(1, 1)] = Scalar.from_frac(2)
        bad_canonical = SqMat(4, bad_entries)
        bad_dprime = SqMat.diag([one, Scalar.from_frac(2),
                                 Scalar.from_frac(2), one])
        bad_dsecond = SqMat.diag([iu, iu, iu, -iu])  # breaks pair antisymmetry
        # keeps the metric and commutes with R; fails only D^2 = +-1
        bad_torus = SqMat.diag([Scalar.from_frac(2), one, one,
                                Scalar.from_frac(Fraction(1, 2))])
        for bad, condition in ((bad_canonical, "DCD"), (bad_dprime, "DCD"),
                               (bad_dsecond, "DCD"), (bad_torus, "square")):
            ok, witness = check_auto_conditions(bad, GroupShape(4))
            assert not ok
            assert witness["condition"] == condition
            assert witness["detail"] is not None
        # unit-weight monomials, which take the relabeling path.  None keeps
        # the metric and fails RDD: D^t C D = C = D C D^t forces a diagonal
        # with w_a w_a' = 1, times the canonical swap for even N, and each
        # of those commutes with R.  So one fails after passing the
        # relabeling, and a pair swap fails the relabeling itself through
        # the equivalence witness, which checks RDD first; both witnesses
        # are those of the SqMat products
        unit_torus = SqMat.diag([iu, one, one, -iu])
        assert check_auto_conditions(unit_torus, GroupShape(4)) == (False, {
            "condition": "square", "detail": {
                "row": 1, "col": 1, "lhs": "-1*s^0", "rhs": "1*s^0"}})
        pair_swap = SqMat(4, {(1, 2): one, (2, 1): one, (3, 4): one,
                              (4, 3): one})
        assert check_equivalence_witness(
            pair_swap, cross([]), cross([]), GroupShape(4)) == (False, {
                "condition": "RDD", "detail": {
                    "row": 2, "col": 2, "lhs": "0",
                    "rhs": "-1*s^-2 + 1*s^2"}})


def test_06_plane_relations_match_canonical_rule_sets():
    with acceptance("06 quantum plane relations for N=4 and N=3 match the "
                    "canonical rule sets exactly"):
        four = {
            (1, 2): NCPoly({(2, 1): q}),
            (1, 3): NCPoly({(3, 1): q}),
            (2, 4): NCPoly({(4, 2): q}),
            (3, 4): NCPoly({(4, 3): q}),
            (2, 3): NCPoly({(3, 2): one}),
            (1, 4): NCPoly({(4, 1): one, (3, 2): -lam}),
        }
        three = {
            (1, 2): NCPoly({(2, 1): q}),
            (2, 3): NCPoly({(3, 2): q}),
            (1, 3): NCPoly({(3, 1): one,
                            (2, 2): -(s - Scalar.q_power(Fraction(-1, 2)))}),
        }
        assert plane_relations(GroupShape(4)).pair_rules == four
        assert plane_relations(GroupShape(3)).pair_rules == three


def test_07_confluence_passes_and_corrupted_system_yields_witness():
    with acceptance("07 rewriting systems confluent for N=3..6; corrupted "
                    "N=4 system fails with an overlap witness"):
        for N in range(3, 7):
            ok, witness = check_confluence(plane_relations(GroupShape(N)))
            assert ok and witness is None, N
        rules = dict(plane_relations(GroupShape(4)).pair_rules)
        rules[(2, 3)] = NCPoly({(3, 2): q})  # coefficient must be 1
        ok, witness = check_confluence(RewriteSystem(4, rules))
        assert not ok
        assert witness["overlap"] == [1, 2, 4]
        assert "left" in witness and "right" in witness


def test_08_classification_fixtures():
    with acceptance("08 classification fixtures: compact, Lorentz (both "
                    "regimes), split, odd split, SO*(4)"):
        fixtures = [
            (star([]), 4, "SO(4,0)"),
            (star([canonical_D(4)]), 4, "SO(3,1)"),
            (cross([canonical_D(4)]), 4, "SO(3,1)"),
            (cross([]), 5, "SO(3,2)"),
            (cross([]), 4, "SO(2,2)"),
            (star([dsecond_canonical(4)]), 4, "SO*(4)"),
        ]
        for spec, N, expected in fixtures:
            assert str(classify(spec, GroupShape(N))) == expected, (N, expected)


def test_09_real_form_counts_match_quoted_totals():
    with acceptance("09 real-form counts: 2^n odd real, 2^n+2^(n-2) even "
                    "real (N=8 flagged), 1/2 unit-modulus"):
        for N in (5, 7, 9):
            n = (N - 1) // 2
            assert count_real_forms(N, REAL).count == 2 ** n, N
        for N in (4, 6, 8, 10):
            n = N // 2
            result = count_real_forms(N, REAL)
            assert result.count == 2 ** n + 2 ** (n - 2), N
            if N == 8:
                assert result.caveat is not None
            else:
                assert result.caveat is None
        for N in (5, 7, 9):
            assert count_real_forms(N, UNIT).count == 1, N
        for N in (4, 6, 8, 10):
            assert count_real_forms(N, UNIT).count == 2, N


def test_10_equivalence_witnesses_verify_exactly():
    with acceptance("10 equivalence witnesses: odd cross pair, even star "
                    "pairing, imaginary-family reduction at q=1, N<=8"):
        for N in (3, 5, 7):
            n = (N - 1) // 2
            A = SqMat.diag([iu] * n + [one] + [-iu] * n)
            assert check_equivalence_witness(
                A, cross([canonical_D(N)]), cross([]), GroupShape(N)) \
                == (True, None)
        for N in (4, 6, 8):
            n = N // 2
            shape = GroupShape(N)
            A = SqMat.diag([-one] * n + [one] * n)
            D = canonical_D(N)
            for dp in enumerate_autos(N, "dprime"):
                if dp.eps[0] != 1:
                    continue
                partner = "".join(
                    "-" if (e == 1) != (j in (n - 1, n)) else "+"
                    for j, e in enumerate(dp.eps))
                dp2 = auto_from_signs(N, "dprime", partner)
                assert check_equivalence_witness(
                    A, star([D, dp]), star([D, dp2]), shape) == (True, None)
                assert classify(star([D, dp]), shape) == \
                    classify(star([D, dp2]), shape)
        # check_sostar step (iii): each D'' reduces to D''_1 through its
        # pair-swap witness at q = 1
        for N in (4, 6, 8):
            shape = GroupShape(N)
            for ds in enumerate_autos(N, "dsecond"):
                assert check_sostar(shape, ds), (N, ds.tag())


def test_11_sostar_structure_for_n4_and_n6():
    with acceptance("11 SO* structure: real basis orthonormality and "
                    "symplectic transport at q=1 for N=4, 6"):
        for N in (4, 6):
            shape = GroupShape(N)
            for ds in enumerate_autos(N, "dsecond"):
                assert check_sostar(shape, ds), (N, ds.tag())


def test_12_quotient_embeddings_need_the_scaling():
    with acceptance("12 three-generator quotients close for both signs and "
                    "fail when the scaling factor is omitted"):
        assert quotient_check(1)
        assert quotient_check(-1)
        assert not quotient_check(1, include_scaling=False)
        assert not quotient_check(-1, include_scaling=False)


def test_13_star_consistency_on_planes():
    with acceptance("13 plane conjugations close on the relation ideal for "
                    "the four fixtures; identity fails for real q"):
        rs4 = plane_relations(GroupShape(4))
        rs3 = plane_relations(GroupShape(3))
        K_star_sharp = plane_conjugation_matrix(star([canonical_D(4)]),
                                                GroupShape(4))
        assert check_star_consistency(rs4, K_star_sharp, REAL)
        K_cross_sharp = plane_conjugation_matrix(cross([canonical_D(4)]),
                                                 GroupShape(4))
        assert check_star_consistency(rs4, K_cross_sharp, UNIT)
        K_star = plane_conjugation_matrix(star([]), GroupShape(3))
        assert check_star_consistency(rs3, K_star, REAL)
        K_so21 = build_metric(3).transpose() * SqMat.diag([one, -one, one])
        assert conj_entry_is_negated(K_so21)
        assert check_star_consistency(rs3, K_so21, REAL)
        assert not check_star_consistency(rs4, SqMat.identity(4), REAL)


def conj_entry_is_negated(K):
    from qortho.qplane import conj_poly
    img = conj_poly(NCPoly.gen(2), K, REAL)
    return img == NCPoly({(2,): -one})
