"""R matrix, metric, and projector identities."""

import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qortho import linalg, rmatrix
from qortho.cli import _projector_checks, main
from qortho.errors import BadN
from qortho.linalg import (
    SqMat, _decode, _kronecker_images, classical_mat, first_diff, kron_embed,
    pack, products_equal, rank, sums_equal, unpack,
)
from qortho.rmatrix import (
    GroupShape, _integer_ybe, build_metric, build_projectors, build_R,
    build_rhat, build_rho, check_char_eq, check_r_reality, check_ybe,
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


def test_r_of_the_wrong_size_raises_bad_n():
    # the same check, and the same message, in every builder or check that
    # takes R and N
    for call in (lambda R, N: build_projectors(R, N),
                 lambda R, N: check_ybe(R, N),
                 lambda R, N: check_r_reality(R, GroupShape(N),
                                              ConjRegime.REAL_Q)):
        with pytest.raises(BadN, match="R has dim 4, expected 9"):
            call(SqMat.identity(4), 3)
        with pytest.raises(BadN, match="R has dim 9, expected 16"):
            call(build_R(3), 4)
    assert build_projectors(build_R(3), 3) == GroupShape(3).projectors


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


@pytest.mark.parametrize("N", range(3, 10))
def test_metric_is_q_to_the_minus_rho(N):
    # the builders read the weights as the ints 2 rho; build_rho's
    # Fractions must give the same powers of q
    rho = build_rho(N)
    assert build_metric(N) == SqMat(N, {
        (a, N + 1 - a): Scalar.q_power(-rho[a - 1]) for a in range(1, N + 1)})


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


def flip(N):
    return SqMat(N * N, {(pack((a, b), N), pack((b, a), N)): ONE
                         for a in range(1, N + 1) for b in range(1, N + 1)})


def sigma(x, N):
    # sigma(a, b) = (b', a') on V (x) V, a' = N + 1 - a
    a, b = unpack(x, N, 2)
    return pack((N + 1 - b, N + 1 - a), N)


def q_image(i, N):
    # Q(a, b, c) = (c', b', a') on V (x) V (x) V
    a, b, c = unpack(i, N, 3)
    return pack((N + 1 - c, N + 1 - b, N + 1 - a), N)


def sigma_partner(key, N):
    r, c = key
    return sigma(r, N), sigma(c, N)


def is_sigma_invariant(R, N):
    return {sigma_partner(key, N): v
            for key, v in R.entries.items()} == dict(R.entries)


def perturbed(X, key, delta):
    entries = dict(X.entries)
    entries[key] = X.get(*key) + delta
    return SqMat(X.dim, entries)


def sigma_paired(R, N, key, delta):
    """R with the entry at key and its sigma partner each changed by delta."""
    partner = sigma_partner(key, N)
    R = perturbed(R, key, delta)
    return R if partner == key else perturbed(R, partner, delta)


def record_rows(monkeypatch):
    """The rows the YBE kernel accumulates, one list per check."""
    seen = []
    rows = rmatrix._ybe_rows
    monkeypatch.setattr(rmatrix, "_ybe_rows",
                        lambda R, N: seen.append(list(rows(R, N))) or seen[-1])
    return seen


def embeddings(R, N):
    # R13 is R12 conjugated by the flip of slots 2 and 3
    R12, P23 = kron_embed(R, 1, N, 3), kron_embed(flip(N), 2, N, 3)
    return R12, P23 * R12 * P23, kron_embed(R, 2, N, 3)


def reference_ybe(R, N):
    """check_ybe's (ok, witness) from the two sides as Scalar products."""
    R12, R13, R23 = embeddings(R, N)
    diff = first_diff(R12 * R13 * R23, R23 * R13 * R12)
    if diff is None:
        return True, None
    r, c, lv, rv = diff
    return False, {"row": list(unpack(r, N, 3)), "col": list(unpack(c, N, 3)),
                   "lhs": str(lv), "rhs": str(rv)}


def ybe_sides(R, N):
    R12, R13, R23 = embeddings(R, N)
    return [R12, R13, R23], [R23, R13, R12]


def chain_images(left, right):
    # `_kronecker_images` of the one identity left's product = right's
    return _kronecker_images([left], [right] if right else [])


def integer_verdict(R, N):
    return products_equal(*ybe_sides(R, N))


def laurent(g):
    """Integer Laurent polynomials in s^g."""
    return st.dictionaries(
        st.integers(-3, 3), st.integers(-3, 3).filter(bool), min_size=1,
        max_size=3,
    ).map(lambda p: Scalar({g * e: GaussRat(c) for e, c in p.items()}))


def vanishing(g):
    """c s^(g j) (s^g - 2^m), which vanishes at s^g = 2^m: an entry that a k
    fixed below 25 cannot tell from zero.  Its own norm exceeds 2^m, so a k
    taken from any norm bound is never m; the "edge" chains test such a k."""
    return st.builds(
        lambda c, j, m: Scalar.from_frac(c) * sp(g * j)
        * (sp(g) - Scalar.from_frac(2 ** m)),
        st.integers(-2, 2).filter(bool), st.integers(-2, 2),
        st.integers(1, 24))


int_laurent = laurent(1)
vanishing_at_power_of_two = vanishing(1)


@st.composite
def ybe_solutions(draw):
    """(R, N): a known solution of the YBE scaled by c s^j, optionally with
    one entry perturbed by an integer Laurent polynomial, alone or together
    with its sigma partner.  The identity, the flip and so3 are
    sigma-invariant, and a paired change keeps them so: the YBE kernel
    then takes only the representative rows."""
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
        delta = draw(int_laurent | vanishing_at_power_of_two)
        if draw(st.booleans()):
            R = sigma_paired(R, N, key, delta)
        else:
            R = perturbed(R, key, delta)
    return R, N


@given(ybe_solutions())
@settings(max_examples=300, deadline=None)
def test_integer_verdict_equals_product_verdict(case):
    # both integer halves: the generic chain's verdict, and the YBE
    # kernel's verdict and decoded witness
    R, N = case
    reference = reference_ybe(R, N)
    assert integer_verdict(R, N) == reference[0]
    assert check_ybe(R, N) == reference


@pytest.mark.parametrize("N", range(3, 7))
def test_ybe_kernel_verdict_on_changed_r(monkeypatch, N):
    # the real R scaled by c s^j (the equation is homogeneous, so it still
    # holds), and with one entry changed by +-c s^j: present entries and
    # zero ones, both parities of j, each change alone and together with
    # its sigma partner.  The scaled and the paired cases are
    # sigma-invariant, so the kernel takes only the representative rows,
    # and both verdicts occur there
    rng = random.Random(N)
    R = build_R(N)
    present = sorted(R.entries)
    cases = [R.scale(Scalar.from_frac(c) * sp(j))
             for c, j in ((1, 1), (-2, -3), (3, 2))]
    for n in range(8):
        key = present[rng.randrange(len(present))] if n % 2 else \
            (rng.randint(1, N * N), rng.randint(1, N * N))
        delta = Scalar.from_frac(rng.choice((-3, -2, -1, 1, 2, 3))) * sp(n - 4)
        cases += [perturbed(R, key, delta), sigma_paired(R, N, key, delta)]
    seen = record_rows(monkeypatch)
    results = [check_ybe(X, N) for X in cases]
    assert results == [reference_ybe(X, N) for X in cases]
    verdicts = [ok for ok, _ in results]
    assert verdicts[:3] == [True] * 3 and False in verdicts
    halved = [len(rows) < N ** 3 for rows in seen]
    assert halved == [is_sigma_invariant(X, N) for X in cases]
    assert all(halved[:3] + halved[4::2])
    assert {ok for ok, h in zip(verdicts, halved) if h} == {True, False}


@pytest.mark.parametrize("N", (3, 4))
def test_ybe_kernel_on_every_single_entry_change(N):
    # every entry of R changed by 1, present or zero: verdict and witness
    # against the Scalar products.  Most changes break sigma-invariance,
    # so a kernel that took the representative rows without checking it
    # would miss rows that differ; the changes at rows (a, a') and columns
    # (c, c') keep it and take the representative rows
    R = build_R(N)
    for r in range(1, N * N + 1):
        for c in range(1, N * N + 1):
            X = perturbed(R, (r, c), ONE)
            assert check_ybe(X, N) == reference_ybe(X, N), (r, c)


@pytest.mark.parametrize("N", range(3, 13))
def test_r_is_sigma_invariant_and_the_kernel_takes_representative_rows(
        monkeypatch, N):
    # R^{ab}_{cd} = R^{b'a'}_{d'c'}, so the kernel accumulates exactly the
    # rows i <= Q(i), in order: N^3 / 2 of them at even N and
    # (N^3 + N) / 2 at odd N; an R that is not sigma-invariant takes every
    # row
    R = build_R(N)
    assert is_sigma_invariant(R, N)
    seen = record_rows(monkeypatch)
    assert check_ybe(R, N) == (True, None)
    representatives = [i for i in range(1, N ** 3 + 1) if i <= q_image(i, N)]
    assert seen == [representatives]
    assert 2 * len(representatives) == N ** 3 + (N if N % 2 else 0)
    assert check_ybe(changed_r(N), N)[0] is False
    assert seen[1] == list(range(1, N ** 3 + 1))


def row_norm(R):
    # largest sum of |coefficient| over the entries of one row
    norms = {}
    for (r, _), v in R.entries.items():
        norms[r] = norms.get(r, 0) + sum(abs(c.a) for c in v.n0.values())
    return max(norms.values())


@pytest.mark.parametrize("N", (3, 4))
def test_ybe_sides_obey_the_coefficient_bound(monkeypatch, N):
    R = build_R(N)
    rho = row_norm(R)
    assert rho == 2 * N + 1
    R12, R13, R23 = embeddings(R, N)
    for side in (R12 * R13 * R23, R23 * R13 * R12):
        for v in side.entries.values():
            assert all(c.d == 1 and not c.b and abs(c.a) <= rho ** 3
                       for c in v.n0.values())
    k = chain_images(*ybe_sides(R, N))[0]
    assert 2 ** k > 8 * rho ** 3
    # the YBE kernel takes the images of R alone, and they are the ones
    # of the three embedded factors: the same k and entry objects
    seen = []
    images = rmatrix._kronecker_images
    monkeypatch.setattr(rmatrix, "_kronecker_images",
                        lambda left, right: seen.append(images(left, right))
                        or seen[-1])
    assert _integer_ybe(R, N, R12, R23) is None
    assert seen == [chain_images(*ybe_sides(R, N))]
    assert 2 ** seen[0][0] > 8 * rho ** 3


@pytest.mark.parametrize("N", range(3, 7))
def test_even_n_images_are_half_as_wide(N):
    # every exponent of R is even for even N, so the images are taken in
    # s^2 and the widest is about half of what it is in s
    R = build_R(N)
    k, lo, g, images = _kronecker_images([[R] * 3], [[R] * 3])
    exponents = [e for v in R.entries.values() for e in v.n0]
    width_in_s = k * (max(exponents) - min(exponents))
    widest = max(abs(x).bit_length() for x in images.values())
    assert lo == min(exponents) and g == (1 if N % 2 else 2)
    assert abs(g * widest - width_in_s) < g * k


def count_products(monkeypatch):
    calls = []
    product = SqMat.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(SqMat, "__mul__", counted)
    return calls


def changed_r(N):
    # R with its first entry changed by 1: the equation fails
    R = build_R(N)
    entries = dict(R.entries)
    key = min(entries)
    entries[key] = entries[key] + ONE
    return SqMat(N * N, entries)


def test_integer_r_takes_no_scalar_product(monkeypatch):
    # a passing or failing check builds R12 and R23 once each, never R13,
    # and forms no Scalar product and no first_diff
    def no_first_diff(X, Y):
        raise AssertionError("first_diff called by check_ybe")

    embeds = []
    embed = rmatrix.kron_embed
    monkeypatch.setattr(rmatrix, "kron_embed",
                        lambda *args: embeds.append(args[1:]) or embed(*args))
    cases = [(N, X) for N in range(3, 7) for X in (build_R(N), changed_r(N))]
    for module in (linalg, rmatrix):
        monkeypatch.setattr(module, "first_diff", no_first_diff, raising=False)
    calls = count_products(monkeypatch)
    for N, X in cases:
        embeds.clear()
        ok, witness = check_ybe(X, N)
        assert ok == (X == build_R(N)) and (witness is None) == ok
        assert embeds == [(1, N, 3), (2, N, 3)]
    assert not calls


@pytest.mark.parametrize("c", [
    Scalar.i_unit(), Scalar.from_frac(Fraction(1, 2)),
    # (1 + s)/3: a Laurent polynomial over the denominator 3
    Scalar.from_frac(Fraction(1, 3)) * (Scalar.one() + Scalar.q_power(
        Fraction(1, 2))),
], ids=["i", "half", "den"])
def test_non_integer_r_raises_type_error(monkeypatch, c):
    R = build_R(3).scale(c)
    assert reference_ybe(R, 3) == (True, None)
    with pytest.raises(TypeError):
        chain_images(*ybe_sides(R, 3))
    calls = count_products(monkeypatch)
    with pytest.raises(TypeError):
        check_ybe(R, 3)
    assert not calls


@st.composite
def chains(draw):
    """(left, right): factor lists over one small dim.  right is empty
    (the question is left's product = 0), a regrouping of left (the
    products agree), m other factors, or an edge case for k (below); one
    entry of right's first factor (of left's for an empty right) may then
    be perturbed.  Every exponent is a multiple of a stride g in {1, 2, 3},
    so `_kronecker_images` also takes its images in s^g for g > 1."""
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    g = draw(st.sampled_from((1, 2, 3)))
    index = st.tuples(st.integers(1, dim), st.integers(1, dim))
    factor = st.dictionaries(index, laurent(g), max_size=dim * dim).map(
        lambda entries: SqMat(dim, entries))
    left = [draw(factor) for _ in range(m)]
    kind = draw(st.sampled_from(("zero", "regrouped", "other", "edge")))
    if kind == "zero":
        right = []
    elif kind == "regrouped":
        right = [left[0] * left[1]] + left[2:] + [SqMat.identity(dim)] \
            if m > 1 else [left[0]]
    elif kind == "other":
        right = [draw(factor) for _ in range(m)]
    else:
        # X and Y differ in one entry by s^(g j) (s^g - 2^(h+1)), which
        # vanishes at s^g = 2^(h+1).  The row holding it has norm 2^h + 1,
        # and every other row at most 27, so for h >= 4 2^(h+1) is the
        # least power of two above beta.  A k taken from 2^k > beta instead
        # of 2^k > 8 beta, or fixed at 3 when h = 2, maps the two sides to
        # equal integers.
        h, j = draw(st.integers(2, 30)), draw(st.integers(-3, 3))
        r, c = draw(index)
        X = {key: v for key, v in left[0].entries.items() if key[0] != r}
        Y = dict(X)
        X[(r, c)] = sp(g * (j + 1)) - Scalar.from_frac(2 ** h) * sp(g * j)
        Y[(r, c)] = Scalar.from_frac(2 ** h) * sp(g * j)
        rest = [SqMat.identity(dim)] * (m - 1)
        left, right = [SqMat(dim, X)] + rest, [SqMat(dim, Y)] + rest
    if draw(st.booleans()):
        side = right or left
        key = draw(index)
        entries = dict(side[0].entries)
        entries[key] = side[0].get(*key) + draw(laurent(g) | vanishing(g))
        side[0] = SqMat(dim, entries)
    return left, right


def chain_product_verdict(left, right):
    lhs = left[0]
    for X in left[1:]:
        lhs = lhs * X
    if not right:
        return lhs.is_zero()
    rhs = right[0]
    for Y in right[1:]:
        rhs = rhs * Y
    return lhs == rhs


@given(chains())
@settings(max_examples=300, deadline=None)
def test_integer_chain_verdict_equals_product_verdict(case):
    left, right = case
    assert products_equal(left, right) == chain_product_verdict(left, right)


@st.composite
def identity_lists(draw):
    """Identities (lhs, rhs) over one small dim, each side a list of 0 to 3
    chains of m factors (m per identity), every exponent a multiple of one
    stride g; with a perturbed entry, or rhs the same chains regrouped, so
    that both verdicts occur."""
    dim = draw(st.integers(1, 3))
    g = draw(st.sampled_from((1, 2, 3)))
    index = st.tuples(st.integers(1, dim), st.integers(1, dim))
    factor = st.dictionaries(index, laurent(g) | vanishing(g),
                             max_size=dim * dim).map(
        lambda entries: SqMat(dim, entries))
    identities = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, 3))
        lhs = [[draw(factor) for _ in range(m)]
               for _ in range(draw(st.integers(0, 3)))]
        if lhs and draw(st.booleans()):
            rhs = [chain[::-1] if m == 1 else
                   [chain[0] * chain[1], *chain[2:], SqMat.identity(dim)]
                   for chain in reversed(lhs)]
            if draw(st.booleans()):
                rhs[0][0] = perturbed(rhs[0][0], draw(index),
                                      draw(laurent(g) | vanishing(g)))
        else:
            rhs = [[draw(factor) for _ in range(m)]
                   for _ in range(draw(st.integers(0, 3)))]
        identities.append((lhs, rhs))
    return identities


def sum_verdict(lhs, rhs):
    # the two sides as Scalar sums of SqMat products
    def total(side):
        out = None
        for chain in side:
            product = chain[0]
            for X in chain[1:]:
                product = product * X
            out = product if out is None else out + product
        return out
    left, right = total(lhs), total(rhs)
    if left is None or right is None:
        other = right if left is None else left
        return other is None or other.is_zero()
    return left == right


@given(identity_lists())
@settings(max_examples=200, deadline=None)
def test_one_pass_verdicts_equal_sum_of_product_verdicts(identities):
    verdicts = sums_equal(identities)
    assert verdicts == [sum_verdict(lhs, rhs) for lhs, rhs in identities]
    # each identity alone gives the verdict it gives among the others
    assert verdicts == [sums_equal([identity])[0] for identity in identities]


def test_k_bounds_the_sum_over_chains_not_the_largest_chain():
    # 16 chains of 2^h against s: at s = 2^(h+4) both sides read 2^(h+4).
    # A k from the largest chain's bound 2^h alone would be h + 4 and
    # call them equal; the side's bound 16 2^h gives h + 8
    h = 5
    A = SqMat(1, {(1, 1): Scalar.from_frac(2 ** h)})
    S = SqMat(1, {(1, 1): sp(1)})
    k = _kronecker_images([[A]] * 16, [[S]])[0]
    assert 2 ** k > 8 * 16 * 2 ** h
    assert sums_equal([([[A]] * 16, [[S]])]) == [False]
    assert sums_equal([([[A]] * 16, [[A] for _ in range(8)] * 2)]) == [True]


def test_integer_chains_have_equal_lengths():
    I = SqMat.identity(2)
    with pytest.raises(ValueError):
        products_equal([I, I], [I])
    with pytest.raises(ValueError):
        sums_equal([([[I, I]], [[I, I]]), ([[I], [I, I]], [])])


@pytest.mark.parametrize("c", [
    Scalar.i_unit(), Scalar.from_frac(Fraction(1, 2)),
    # (1 + s)/3: a Laurent polynomial over the denominator 3
    Scalar.from_frac(Fraction(1, 3)) * (Scalar.one() + Scalar.q_power(
        Fraction(1, 2))),
], ids=["i", "half", "den"])
def test_non_integer_entries_raise_type_error(monkeypatch, c):
    den, P0, PA, _, _ = GroupShape(3).projectors
    den_I = SqMat.identity(9).scale(den)
    X = PA.scale(c)
    assert chain_product_verdict([X, PA], [X, den_I])
    calls = count_products(monkeypatch)
    with pytest.raises(TypeError):
        products_equal([X, PA], [X, den_I])
    with pytest.raises(TypeError):
        products_equal([X, P0])
    assert not calls


@st.composite
def coded_entries(draw):
    """(g, entries): integer Laurent polynomials in s^g, negative exponents
    included, and one of c s^(g e) alone in its row, with |c| = 2^j - 1 up
    to 2^40 - 1: the largest coefficient whose row norm still has
    2^k > 8 beta for the k that c alone would give."""
    g = draw(st.sampled_from((1, 2, 3)))
    entries = draw(st.lists(laurent(g), min_size=1, max_size=4))
    c = draw(st.sampled_from((-1, 1))) * (2 ** draw(st.integers(1, 40)) - 1)
    entries.append(Scalar.from_frac(c) * sp(g * draw(st.integers(-4, 4))))
    return g, entries


@given(coded_entries())
@settings(max_examples=200, deadline=None)
def test_decoded_images_give_back_each_entry(case):
    g, entries = case
    X = SqMat.diag(entries)
    k, lo, stride, images = chain_images([X], [])
    exponents = {e for v in entries for e in v.n0}
    assert lo == min(exponents)
    assert stride % g == 0 or len(exponents) == 1
    for v in entries:
        assert _decode(images[id(v)], k, lo, stride) == v
    big = max(abs(c.a) for c in entries[-1].n0.values())
    if big > 9:
        # every other row has norm at most 9, so the lone coefficient sets
        # beta, and it is within a factor 2 of 2^k / 8
        assert 2 ** (k - 1) <= 8 * big < 2 ** k


def char_eq_factors(N):
    Rhat = GroupShape(N).projectors[4]
    I = SqMat.identity(N * N)
    return [Rhat - Q * I, Rhat + QI * I, Rhat - Scalar.q_power(1 - N) * I]


@pytest.mark.parametrize("N", (3, 4))
def test_projector_chains_obey_the_coefficient_bound(N):
    # every prefix product of each chain, so every row the integer path
    # holds, stays within the product of its factors' row norms
    den, P0, PA, _, _ = GroupShape(N).projectors
    den_I = SqMat.identity(N * N).scale(den)
    for left, right in (([PA, PA], [PA, den_I]), ([P0, P0], [P0, den_I]),
                        ([PA, P0], []), ([P0, PA], []),
                        (char_eq_factors(N), [])):
        beta = 1
        for side in (left, right):
            bound, prefix = 1, None
            for X in side:
                bound *= row_norm(X)
                prefix = X if prefix is None else prefix * X
                for v in prefix.entries.values():
                    assert all(c.d == 1 and not c.b and abs(c.a) <= bound
                               for c in v.n0.values())
            beta = max(beta, bound)
        k = chain_images(left, right)[0]
        assert 2 ** k > 8 * beta
        assert products_equal(left, right)


def test_integer_projectors_take_no_scalar_product(monkeypatch):
    calls = count_products(monkeypatch)
    out = io.StringIO()
    assert main(["projectors", "--n", "4", "--format", "json"], out=out) == 0
    checks = {c["name"]: c["pass"] for c in json.loads(out.getvalue())["checks"]}
    assert all(checks[name] for name in ("p0_idempotent", "pa_idempotent",
                                         "pa_p0_orthogonal", "char_eq"))
    assert not calls


def test_corrupted_pa_fails_through_the_product_path(monkeypatch):
    # the integer products of `products_equal` give the final "differs":
    # no Scalar product decides it again
    N = 4
    den, P0, PA, PS, Rhat = GroupShape(N).projectors
    # change one coefficient of one entry of PA
    key, v = next(iter(PA.entries.items()))
    e, c = next(iter(v.n0.items()))
    n0 = dict(v.n0)
    n0[e] = c + GaussRat(1)
    bad = dict(PA.entries)
    bad[key] = Scalar(n0)
    bad_PA = SqMat(N * N, bad)
    den_I = SqMat.identity(N * N).scale(den)
    assert not chain_product_verdict([bad_PA, bad_PA], [bad_PA, den_I])
    calls = count_products(monkeypatch)
    assert products_equal([bad_PA, bad_PA], [bad_PA, den_I]) is False
    failed = failing_projector_checks(N, den, P0, bad_PA, PS, Rhat)
    assert "pa_idempotent" in failed
    assert not calls


def test_projector_algebra():
    # on the numerators X = den P of the projectors P
    for N in (3, 4, 5):
        den, P0, PA, PS, Rhat = GroupShape(N).projectors
        den_I = SqMat.identity(N * N).scale(den)
        assert PA * PA == PA.scale(den)
        assert P0 * P0 == P0.scale(den)
        assert (PA * P0).is_zero() and (P0 * PA).is_zero()
        assert P0 + PA + PS == den_I
        assert PS * PS == PS.scale(den)
        assert P0.trace() == den
        assert rank(PA) == N * (N - 1) // 2
        # spectral decomposition of the flipped R matrix
        assert Rhat.scale(den) == \
            Q * PS - QI * PA + Scalar.q_power(1 - N) * P0


def rational_projectors(N):
    """P0, PA, PS from the rational formulas, over q + q^-1 and D, in
    sympy's field Q(s) of rational functions (R has rational integer
    coefficients), with the map from a Scalar to its value there."""
    sympy = pytest.importorskip("sympy")
    QQ = sympy.QQ
    field, s = sympy.field("s", QQ)

    def value(v):
        assert all(not c.b for c in v.n0.values())
        return sum((QQ(c.a, c.d) * s ** k for k, c in v.n0.items()),
                   field.zero)

    rho = build_rho(N)
    q, q1N = s ** 2, s ** (2 - 2 * N)
    D = sum((s ** int(-4 * r) for r in rho), field.zero)
    P0 = {(pack((a, N + 1 - a), N), pack((c, N + 1 - c), N)):
          s ** int(-2 * rho[a - 1] - 2 * rho[c - 1]) / D
          for a in range(1, N + 1) for c in range(1, N + 1)}
    Rhat = {key: value(v) for key, v in build_rhat(build_R(N), N).entries.items()}
    I = {(i, i): field.one for i in range(1, N * N + 1)}

    def combination(*terms):
        out = {}
        for c, X in terms:
            for key, x in X.items():
                out[key] = out.get(key, field.zero) + c * x
        return {key: x for key, x in out.items() if x}

    E = q + 1 / q
    PA = combination((q / E, I), (-1 / E, Rhat), (-(q - q1N) / E, P0))
    PS = combination((1 / (q * E), I), (1 / E, Rhat), (-(1 / q + q1N) / E, P0))
    return value, (P0, PA, PS)


@pytest.mark.parametrize("N", range(3, 9))
def test_projectors_are_numerators_over_one_denominator(N):
    den, *numerators, _ = GroupShape(N).projectors
    assert not den.is_zero()
    value, rational = rational_projectors(N)
    for X, P in zip(numerators, rational):
        assert {key: value(v) / value(den) for key, v in X.entries.items()} == P


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


def reference_projector_verdicts(N, den, P0, PA, PS, Rhat):
    """Each projector identity by its own `products_equal` call, or, for
    sum_is_identity and trace_p0, a `Scalar` comparison, with den I and the
    char_eq factors from chained SqMat arithmetic."""
    I = SqMat.identity(N * N)
    den_I = I.scale(den)
    return {
        "trace_p0": sum((P0.get(i, i) for i in range(1, N * N + 1)),
                        Scalar.zero()) == den,
        "p0_idempotent": products_equal([P0, P0], [P0, den_I]),
        "pa_idempotent": products_equal([PA, PA], [PA, den_I]),
        "pa_p0_orthogonal": (products_equal([PA, P0])
                             and products_equal([P0, PA])),
        "sum_is_identity": P0 + PA + PS == den_I,
        "char_eq": products_equal([Rhat - Q * I, Rhat + QI * I,
                                   Rhat - Scalar.q_power(1 - N) * I]),
    }


@pytest.mark.parametrize("N", range(3, 7))
def test_perturbed_projectors_give_each_check_its_own_verdict(N):
    # one entry of P0, PA, PS or Rhat changed, present or absent before:
    # the one integer pass gives every identity the verdict that its own
    # product or Scalar comparison gives, and trace_p0 reports 1 when it
    # passes and tr(P0) and den when it fails
    projectors = GroupShape(N).projectors
    names = ("P0", "PA", "PS", "Rhat")
    failed, traces = {}, set()
    for slot, name in enumerate(names, 1):
        X = projectors[slot]
        absent = next(key for key in itertools.product(
            range(1, N * N + 1), repeat=2) if key not in X.entries)
        for key, delta in ((min(X.entries), ONE), (max(X.entries), sp(2)),
                           (absent, -QI)):
            args = list(projectors)
            args[slot] = perturbed(X, key, delta)
            shape = GroupShape(N)
            shape.once("projectors", lambda: tuple(args))
            result = {c["name"]: c for c in _projector_checks(shape)}
            expected = reference_projector_verdicts(N, *args)
            assert {k: result[k]["pass"] for k in expected} == expected
            trace = args[1].trace()
            if expected["trace_p0"]:
                assert result["trace_p0"]["data"] == {"trace": "1*s^0"}
                assert "witness" not in result["trace_p0"]
            else:
                assert result["trace_p0"]["witness"] == {
                    "trace": str(trace), "den": str(args[0])}
                assert "data" not in result["trace_p0"]
            traces.add(str(trace))
            failed.setdefault(name, set()).update(
                k for k, ok in expected.items() if not ok)
    assert len(traces) > 1
    assert failed["PS"] == {"sum_is_identity"}
    assert failed["Rhat"] == {"char_eq"}
    assert set().union(*failed.values()) == {
        "p0_idempotent", "pa_idempotent", "pa_p0_orthogonal",
        "sum_is_identity", "trace_p0", "char_eq"}


@pytest.mark.parametrize("N", range(3, 9))
def test_projector_checks_take_one_integer_pass_and_no_matrix_sums(
        N, monkeypatch):
    # from a fresh shape, builds included: one `_kronecker_images` call
    # encodes every identity, and no SqMat sum, difference or scaling runs
    calls = []
    images = linalg._kronecker_images
    monkeypatch.setattr(linalg, "_kronecker_images",
                        lambda *sides: calls.append("images") or images(*sides))
    for name in ("__add__", "__sub__", "scale"):
        method = getattr(SqMat, name)
        monkeypatch.setattr(SqMat, name, lambda *args, name=name, method=method:
                            calls.append(name) or method(*args))
    checks = _projector_checks(GroupShape(N))
    assert all(c["pass"] for c in checks)
    assert calls == ["images"]


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
