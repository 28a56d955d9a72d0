from fractions import Fraction

import pytest

from qortho import qplane
from qortho.errors import (
    BadN, DimMismatch, NotUnit, QorthoError, RankMismatch,
)
from qortho.qplane import (
    NCPoly, RewriteSystem, check_confluence, check_star_consistency,
    conj_poly, normal_form, plane_relations, quotient_check, rules_json,
)
from qortho.linalg import SqMat, inverse
from qortho.realforms import CROSS, STAR, ConjugationSpec, canonical_D, \
    plane_conjugation_matrix
from qortho.rmatrix import GroupShape, build_metric
from qortho.scalars import ConjRegime, Scalar

REAL = ConjRegime.REAL_Q
UNIT = ConjRegime.UNIT_MODULUS_Q

one = Scalar.one()
q = Scalar.q_power(1)
qi = Scalar.q_power(-1)
s = Scalar.q_power(Fraction(1, 2))
lam = q - qi


def fourplane_rules():
    return {
        (1, 2): NCPoly({(2, 1): q}),
        (1, 3): NCPoly({(3, 1): q}),
        (2, 4): NCPoly({(4, 2): q}),
        (3, 4): NCPoly({(4, 3): q}),
        (2, 3): NCPoly({(3, 2): one}),
        (1, 4): NCPoly({(4, 1): one, (3, 2): -lam}),
    }


def threeplane_rules():
    return {
        (1, 2): NCPoly({(2, 1): q}),
        (2, 3): NCPoly({(3, 2): q}),
        (1, 3): NCPoly({(3, 1): one, (2, 2): -(s - Scalar.q_power(Fraction(-1, 2)))}),
    }


# -- relation extraction ------------------------------------------------------


def test_fourplane_rules_exact():
    assert plane_relations(GroupShape(4)).pair_rules == fourplane_rules()


def test_threeplane_rules_exact():
    assert plane_relations(GroupShape(3)).pair_rules == threeplane_rules()


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_rule_count_matches_antisymmetric_rank(N):
    rs = plane_relations(GroupShape(N))
    assert len(rs.pair_rules) == N * (N - 1) // 2
    assert set(rs.pair_rules) == {(a, b) for a in range(1, N + 1)
                                  for b in range(a + 1, N + 1)}


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_rule_right_sides_are_normal(N):
    for rhs in plane_relations(GroupShape(N)).pair_rules.values():
        for w in rhs.terms:
            assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def test_plane_relations_rejects_small_N():
    with pytest.raises(BadN):
        plane_relations(GroupShape(2))


def test_rank_mismatch_when_pivots_leave_increasing_pairs(monkeypatch):
    # with P_A = I and Rhat = 0 the row space of P_A (I's rows on the
    # support of M, q I's rows elsewhere) is everything: every column opens
    # a pivot, the decreasing pairs too
    import qortho.rmatrix as rmatrix
    monkeypatch.setattr(rmatrix, "build_projectors", lambda R, N: (
        Scalar.one(), None, SqMat.identity(N * N), None, SqMat(N * N)))
    with pytest.raises(RankMismatch, match="not the increasing pairs"):
        plane_relations(GroupShape(3))


@pytest.mark.parametrize("N", range(3, 13))
def test_every_pivot_is_a_unit(N):
    # the plane's rules and R's inverse must be Laurent, so each raises
    # NotUnit on a non-unit pivot: none occurs
    shape = GroupShape(N)
    assert len(plane_relations(shape).pair_rules) == N * (N - 1) // 2
    assert shape.R * inverse(shape.R) == SqMat.identity(N * N)


def test_non_unit_pivot_raises_not_unit():
    # (s + 1) x1 x2 + x2 x1 = 0 has the rule x1 x2 -> -x2 x1 / (s + 1),
    # which is not Laurent; (s + 1) x1 x2 + (s + 1) x2 x1 = 0 is x1 x2 -> -x2 x1
    with pytest.raises(NotUnit, match=r"rule for \(1, 2\)"):
        qplane._quadratic_rules(2, [{(1, 2): s + one, (2, 1): one}], "test")
    rs = qplane._quadratic_rules(2, [{(1, 2): s + one, (2, 1): s + one}], "test")
    assert rs.pair_rules == {(1, 2): NCPoly({(2, 1): -one})}


# -- normal forms -------------------------------------------------------------


def test_normal_form_simple_swap():
    rs = plane_relations(GroupShape(4))
    assert normal_form(NCPoly.word((1, 2)), rs) == NCPoly({(2, 1): q})


def test_normal_form_middle_pair():
    rs = plane_relations(GroupShape(4))
    nf = normal_form(NCPoly.word((1, 4)), rs)
    assert nf == NCPoly({(4, 1): one, (3, 2): -lam})


def test_normal_form_fixed_point_on_normal_word():
    rs = plane_relations(GroupShape(4))
    p = NCPoly.word((4, 3, 1))
    assert normal_form(p, rs) == p


def test_normal_form_idempotent_and_linear():
    rs = plane_relations(GroupShape(4))
    p = NCPoly.word((1, 2, 4)) - NCPoly.word((2, 3), lam)
    r = NCPoly.word((1, 4, 2), q)
    nf_p = normal_form(p, rs)
    nf_r = normal_form(r, rs)
    assert normal_form(nf_p, rs) == nf_p
    combo = normal_form(p * Scalar.from_frac(3) + r, rs)
    assert combo == nf_p * Scalar.from_frac(3) + nf_r


def test_normal_degree_two_monomial_count():
    for N in (3, 4, 5):
        rs = plane_relations(GroupShape(N))
        normals = set()
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                nf = normal_form(NCPoly.word((a, b)), rs)
                normals.update(nf.terms)
        assert len(normals) == N * (N + 1) // 2


def test_normal_form_validates_letters():
    rs = plane_relations(GroupShape(3))
    with pytest.raises(ValueError):
        normal_form(NCPoly.word((1, 4)), rs)


# -- confluence ---------------------------------------------------------------


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_plane_systems_confluent(N):
    rs = plane_relations(GroupShape(N))
    ok, witness = check_confluence(rs)
    assert ok and witness is None


def test_corrupted_system_fails_with_witness():
    rules = fourplane_rules()
    rules[(2, 3)] = NCPoly({(3, 2): q})  # middle rule must have coefficient 1
    rs = RewriteSystem(4, rules)
    ok, witness = check_confluence(rs)
    assert not ok
    assert witness["overlap"] == [1, 2, 4]


def test_pure_commutation_variant_stays_confluent():
    # dropping the correction term leaves a plain q-commutation system,
    # which has no failing overlaps (it presents a different algebra)
    rules = fourplane_rules()
    rules[(1, 4)] = NCPoly({(4, 1): one})
    ok, _ = check_confluence(RewriteSystem(4, rules))
    assert ok


def test_toy_two_generator_system():
    rs = RewriteSystem(2, {(1, 2): NCPoly({(2, 1): q})})
    ok, witness = check_confluence(rs)
    assert ok and witness is None


# -- rewrite system construction guards --------------------------------------


def test_bad_rule_keys_rejected():
    with pytest.raises(ValueError):
        RewriteSystem(4, {(2, 1): NCPoly({(1, 2): one})})


@pytest.mark.parametrize("word", [(7, 1), (2, 0), (4, 3)])
def test_right_hand_side_letters_outside_the_alphabet_rejected(word):
    # normal_form rejects such letters in its input; a rule may not bring
    # them in either
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        RewriteSystem(3, {(1, 2): NCPoly.word(word)})


def test_nonterminating_rules_rejected():
    with pytest.raises(QorthoError, match="does not decrease"):
        RewriteSystem(4, {(1, 2): NCPoly({(2, 1, 1): one})})  # degree grows


def test_rule_must_decrease_before_normalization():
    # x1x3 -> x1x2 lies above x1x3 and drops below it only once x1x2 is
    # rewritten; termination is certified on the rules as given
    with pytest.raises(QorthoError, match=r"rule \(1, 3\) does not decrease"):
        RewriteSystem(3, {(1, 2): NCPoly.word((2, 1)),
                          (1, 3): NCPoly.word((1, 2))})


def test_rules_are_read_only():
    base = plane_relations(GroupShape(4))
    with pytest.raises(TypeError):
        base.pair_rules[(1, 2)] = NCPoly.word((2, 1))


def test_rule_terms_are_read_only():
    # a rule changed after certification could rewrite forever: x1x2 -> x1x2x3
    rs = plane_relations(GroupShape(3))
    rule = rs.pair_rules[(1, 2)]
    with pytest.raises(TypeError):
        rule.terms[(1, 2, 3)] = Scalar.one()
    with pytest.raises(AttributeError):
        rule.terms = {(1, 2, 3): Scalar.one()}
    with pytest.raises(AttributeError):
        del rule.terms
    assert normal_form(NCPoly.word((1, 2)), rs) == rule


def test_rewrite_system_attributes_cannot_be_rebound():
    rs = plane_relations(GroupShape(3))
    for name in ("N", "pair_rules", "confluent"):
        with pytest.raises(AttributeError):
            setattr(rs, name, {})
        with pytest.raises(AttributeError):
            delattr(rs, name)
    assert rs.N == 3 and len(rs.pair_rules) == 3
    # check_confluence is a pure function: it records nothing on rs
    assert check_confluence(rs) == (True, None)


# -- conjugations on the plane -------------------------------------------------


def minkowski_star_K():
    return plane_conjugation_matrix(
        ConjugationSpec(STAR, [canonical_D(4)], REAL), GroupShape(4))


def test_conj_generator_fixture():
    K = minkowski_star_K()
    img = conj_poly(NCPoly.gen(1), K, REAL)
    assert img == NCPoly({(4,): q})
    assert conj_poly(NCPoly.gen(2), K, REAL) == NCPoly.gen(2)


def test_conj_is_antimultiplicative():
    K = minkowski_star_K()
    p = NCPoly.gen(1) * NCPoly.gen(2)
    lhs = conj_poly(p, K, REAL)
    rhs = conj_poly(NCPoly.gen(2), K, REAL) * conj_poly(NCPoly.gen(1), K, REAL)
    assert lhs == rhs


def test_conj_involutive_on_degree_two():
    K = minkowski_star_K()
    for a in range(1, 5):
        for b in range(1, a + 1):
            p = NCPoly.word((a, b))
            assert conj_poly(conj_poly(p, K, REAL), K, REAL) == p


def test_star_consistency_minkowski_real():
    rs = plane_relations(GroupShape(4))
    assert check_star_consistency(rs, minkowski_star_K(), REAL)


def test_star_consistency_minkowski_unit():
    rs = plane_relations(GroupShape(4))
    K = plane_conjugation_matrix(
        ConjugationSpec(CROSS, [canonical_D(4)], UNIT), GroupShape(4))
    assert check_star_consistency(rs, K, UNIT)


def test_star_consistency_three_plane():
    rs = plane_relations(GroupShape(3))
    K = plane_conjugation_matrix(ConjugationSpec(STAR, [], REAL), GroupShape(3))
    assert K.get(1, 3) == s  # (y1)* = q^(1/2) y3 in this normalization
    assert check_star_consistency(rs, K, REAL)
    # the same conjugation with q-rescaled off-diagonal entries also closes
    K2 = SqMat(3, {(1, 3): q, (2, 2): one, (3, 1): qi})
    assert check_star_consistency(rs, K2, REAL)


def test_star_consistency_so21_plane():
    # K built from raw matrices: the middle sign flip is not a family member
    rs = plane_relations(GroupShape(3))
    K = build_metric(3).transpose() * SqMat.diag([one, -one, one])
    assert conj_poly(NCPoly.gen(2), K, REAL) == NCPoly({(2,): -one})
    assert check_star_consistency(rs, K, REAL)


def test_star_consistency_identity_fails_for_real_q():
    rs = plane_relations(GroupShape(4))
    assert not check_star_consistency(rs, SqMat.identity(4), REAL)


def test_conj_rejects_letters_outside_K():
    K = SqMat.identity(3)
    for p in (NCPoly.gen(4), NCPoly.gen(0), NCPoly.word((1, 4, 5))):
        with pytest.raises(DimMismatch, match="outside the 3 generators"):
            conj_poly(p, K, REAL)
    assert conj_poly(NCPoly.word((1, 3)), K, REAL) == NCPoly.word((3, 1))


@pytest.mark.parametrize("N, dim", [(4, 3), (3, 4)])
def test_star_consistency_rejects_a_K_of_the_wrong_size(N, dim):
    rs = plane_relations(GroupShape(N))
    with pytest.raises(DimMismatch, match=f"K is {dim}x{dim}.* {N} gen"):
        check_star_consistency(rs, SqMat.identity(dim), REAL)


# -- quotient embeddings --------------------------------------------------------


def test_quotient_plus_sign():
    assert quotient_check(1)


def test_quotient_minus_sign():
    assert quotient_check(-1)


def test_quotient_fails_without_scaling():
    assert not quotient_check(1, include_scaling=False)
    assert not quotient_check(-1, include_scaling=False)


# N=3: (1, 2) and (2, 3) have one y2 in each word, so their images are t
# times a part free of t; (1, 3) has words with no y2 and with two, so its
# image is free of t.  The quotient is untouched, so each relation falls
# outside its ideal.  N=4: the images of x1x2 - (q+1)x2x1 and x1x3 - q x3x1
# differ by a multiple of x2x1, which opens a pivot there; an extra x3x1 in
# rule (1, 4) puts an x2x1 term into the quotient's rule (1, 3), which
# breaks the overlap x1x2x3; an extra x2x2 there gives a confluent quotient
# whose rule (1, 3) misses the three-generator relation
@pytest.mark.parametrize("N, key, word, branch", [
    (3, (1, 2), (2, 1), "ideal"), (3, (1, 3), (2, 2), "ideal"),
    (3, (1, 3), (3, 1), "ideal"), (3, (2, 3), (3, 2), "ideal"),
    (4, (1, 2), (2, 1), "pivots"), (4, (1, 4), (3, 1), "confluence"),
    (4, (1, 4), (2, 2), "ideal"),
], ids=["12:21-odd", "13:22-even", "13:31-even", "23:32-odd",
        "n4-12:21-pivots", "n4-14:31-confluence", "n4-14:22-ideal"])
@pytest.mark.parametrize("sign", [1, -1])
def test_quotient_fails_on_a_perturbed_relation(monkeypatch, sign, N, key,
                                                word, branch):
    # one rule of the N-generator plane with one coefficient raised by 1
    relations = qplane.plane_relations
    quadratic_rules = qplane._quadratic_rules
    confluence = qplane.check_confluence
    taken = []

    def perturbed(shape):
        rs = relations(shape)
        if shape.N != N:
            return rs
        rules = dict(rs.pair_rules)
        terms = dict(rules[key].terms)
        terms[word] = terms.get(word, Scalar.zero()) + one
        rules[key] = NCPoly(terms)
        return RewriteSystem(N, rules)

    def spied_rules(*args):
        try:
            return quadratic_rules(*args)
        except RankMismatch:
            taken.append("pivots")
            raise

    def spied_confluence(rs):
        ok, witness = confluence(rs)
        if not ok:
            taken.append("confluence")
        return ok, witness

    monkeypatch.setattr(qplane, "plane_relations", perturbed)
    monkeypatch.setattr(qplane, "_quadratic_rules", spied_rules)
    monkeypatch.setattr(qplane, "check_confluence", spied_confluence)
    assert quotient_check(sign) is False
    assert taken == ([] if branch == "ideal" else [branch])


def test_quotient_argument_validation():
    with pytest.raises(ValueError):
        quotient_check(0)


def test_quotient_system_reduces_third_generator(monkeypatch):
    # the quotient is the three-generator system of the N=4 relations under
    # x3 -> (+-)x2, x4 -> x3; quotient_check checks its confluence first
    confluence = qplane.check_confluence
    for sign in (1, -1):
        systems = []
        monkeypatch.setattr(qplane, "check_confluence",
                            lambda rs: systems.append(rs) or confluence(rs))
        assert quotient_check(sign)
        (quotient,) = systems
        assert quotient.N == 3
        assert quotient.pair_rules == {
            (1, 2): NCPoly({(2, 1): q}),
            (2, 3): NCPoly({(3, 2): q}),
            (1, 3): NCPoly({(3, 1): one, (2, 2): -lam * Scalar.from_frac(sign)}),
        }
        nf = normal_form(NCPoly.word((1, 3)), quotient)
        assert nf == NCPoly({(3, 1): one, (2, 2): -lam * Scalar.from_frac(sign)})


# -- serialization ---------------------------------------------------------------


def test_rules_json_shape():
    dump = rules_json(plane_relations(GroupShape(4)))
    assert dump[0] == {"lhs": [1, 2],
                       "rhs": [{"word": [2, 1], "coeff": "1*s^2"}]}
    entry = next(e for e in dump if e["lhs"] == [1, 4])
    assert {"word": [4, 1], "coeff": "1*s^0"} in entry["rhs"]


def test_ncpoly_str():
    p = NCPoly.word((2, 1)) - NCPoly.word((1, 2), q)
    assert str(p) == "(-1*s^2)*x1x2 + (1*s^0)*x2x1"
    assert str(NCPoly.zero()) == "0"
