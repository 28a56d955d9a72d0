"""Coefficient ring: canonical forms, bar conjugation, classical limit."""

import math
import operator
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qortho
from qortho.errors import DivisionByZero, PoleAtOne
from qortho.linalg import SqMat, row_reduce
from qortho.qplane import NCPoly, RewriteSystem, _normalize_terms, normal_form
from qortho.scalars import (
    _T_SQUARED, ConjRegime, GaussRat, Scalar, _lp_add, _lp_bar, _lp_divexact,
    _lp_divmod, _lp_gcd, _lp_mul, _lp_nonzero, _lp_shift,
)


def sp(k):
    """s^k, with s = q^(1/2)."""
    return Scalar.q_power(Fraction(k, 2))


REAL = ConjRegime.REAL_Q
UNIT = ConjRegime.UNIT_MODULUS_Q

ONE = Scalar.one()
ZERO = Scalar.zero()
I = Scalar.i_unit()
S = sp(1)
Q = Scalar.q_power(1)


# --- independent oracle: Laurent multiplication on plain dicts -------------

def poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def as_scalar(poly):
    return Scalar({k: GaussRat(v) for k, v in poly.items()})


def test_division_oracle():
    # (s^2 - s^-2) / (s - s^-1) should be s + s^-1: confirm the product
    # with an independent multiplication first, then divide.
    num = {2: Fraction(1), -2: Fraction(-1)}
    den = {1: Fraction(1), -1: Fraction(-1)}
    quo = {1: Fraction(1), -1: Fraction(1)}
    assert poly_mul(den, quo) == num
    assert as_scalar(num) / as_scalar(den) == as_scalar(quo)


def test_identity_factor():
    v = Q - ONE / Q
    assert v * ONE == v
    assert v == sp(2) - sp(-2)


def test_t_square():
    # t = sqrt(q^(1/2) + q^(-1/2)) enters the SO*(2n) basis and the
    # quotient embeddings only through this square
    assert _T_SQUARED == S + ONE / S


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        Q / ZERO


def test_inexact_division_raises_under_optimize():
    # (1 + s^2) / (1 + s) leaves the remainder 2; without the check the
    # quotient s - 1 would come back silently.  Run under -O, which strips
    # assert statements, to show the check is not one.
    code = ("from qortho.scalars import GaussRat, _lp_divexact\n"
            "one = GaussRat(1)\n"
            "try:\n"
            "    _lp_divexact({0: one, 2: one}, {0: one, 1: one})\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('inexact division returned a quotient')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qortho.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_canonical_zero():
    samples = [Q, ONE + S, ONE / (ONE + S), (Q - ONE / Q) / (S - ONE / S), I * S]
    for a in samples:
        assert a - a == ZERO
        assert a - a is not None and (a - a).is_zero()


def test_attributes_cannot_be_rebound_or_deleted():
    # every constructor path: checked, trusted polynomial, unit product,
    # rational product, the shared constants
    samples = [Scalar.from_frac(3), S * Q, -S, ONE / (ONE + S), ONE, ZERO]
    for x in samples:
        before = (str(x), hash(x))
        for name in ("n0", "d", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(x, name, {0: GaussRat(2)})
            with pytest.raises(AttributeError, match="immutable"):
                delattr(x, name)
        assert (str(x), hash(x)) == before
    assert Scalar.one() == ONE and str(ONE) == "1*s^0"


# --- coefficients: oracle against plain Fraction pairs ---------------------

fracs = st.fractions(min_value=-40, max_value=40, max_denominator=48)


def assert_canonical(g, re, im):
    # lowest terms give equal values equal fields, which Scalar equality needs
    assert all(type(x) is int for x in (g.a, g.b, g.d))
    assert g.d > 0 and math.gcd(g.a, g.b, g.d) == 1
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert (g.re, g.im) == (re, im)
    assert str(g) == (str(re) if im == 0 else f"{re}+{im}*i")


@given(fracs, fracs, fracs, fracs)
@settings(max_examples=300, deadline=None)
# (2 + i)/4 prints as 1/2+1/4*i: each part is reduced on its own
@example(Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(-5, 6))
def test_gaussrat_matches_fraction_pairs(a, b, c, d):
    x, y = GaussRat(a, b), GaussRat(c, d)
    assert_canonical(x, a, b)
    assert_canonical(x + y, a + c, b + d)
    assert_canonical(x - y, a - c, b - d)
    assert_canonical(x * y, a * c - b * d, a * d + b * c)
    assert_canonical(-x, -a, -b)
    assert_canonical(x.conj(), a, -b)
    assert_canonical(x + GaussRat(1), a + 1, b)
    assert_canonical(GaussRat(1) - x, 1 - a, -b)
    assert_canonical(GaussRat(c) * x, c * a, c * b)
    n = c * c + d * d
    if n:
        assert_canonical(y.inv(), c / n, -d / n)
        assert_canonical(x / y, (a * c + b * d) / n, (b * c - a * d) / n)
        assert_canonical(GaussRat(1) / y, c / n, -d / n)
    else:
        with pytest.raises(DivisionByZero):
            y.inv()
        with pytest.raises(DivisionByZero):
            x / y
    assert (x == y) == ((a, b) == (c, d))
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert (x == GaussRat(a)) == (b == 0)


# --- bar -------------------------------------------------------------------

def test_bar_fixed_points():
    assert Q.bar(REAL) == Q
    assert Q.bar(UNIT) == ONE / Q
    assert (I * S).bar(UNIT) == -I / S
    assert I.bar(REAL) == -I


# every fraction in [-4, 4] with denominator at most 3, simplest first so
# that shrinking heads for 0; sampling them costs far less than drawing
# st.fractions over the same range
small_fracs = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-4 * q, 4 * q + 1)},
                     key=lambda x: (x.denominator, abs(x), x < 0))
coefs = st.builds(GaussRat, st.sampled_from(small_fracs), st.sampled_from(small_fracs))
polys = st.dictionaries(st.integers(-3, 3), coefs, max_size=3)
nonzero_polys = polys.filter(lambda p: any(not v.is_zero() for v in p.values()))


# grounded Q(i)[s] polynomials with a nonzero constant term: the gcd path's
# inputs once `_lp_monic` has shifted out any power of s; canonical like every
# dict `Scalar` hands the `_lp_*` helpers, so no zero coefficient is kept
grounded = st.builds(
    lambda c0, rest: _lp_nonzero({0: c0, **rest}),
    st.builds(GaussRat, st.sampled_from(small_fracs[1:]), st.sampled_from(small_fracs)),
    st.dictionaries(st.integers(1, 3), st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3)),
                    max_size=2))


@settings(max_examples=60, deadline=None)
@given(grounded, grounded, grounded, st.integers(-2, 2))
def test_lp_gcd_matches_sympy(f, g, h, shift):
    # _lp_gcd against sympy's gcd over Q(i)[s], both monic; and
    # _lp_divexact by g undoes a product with g, for a Laurent f too
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")

    def poly(p):
        return sympy.Poly(sum((sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d)) * s ** k
                              for k, c in _lp_nonzero(p).items()), s, domain=sympy.QQ_I)

    a, b = _lp_mul(f, g), _lp_mul(h, g)
    assert poly(_lp_gcd(a, b)) == poly(a).gcd(poly(b)).monic()
    laurent = _lp_shift(f, shift)
    assert _lp_divexact(_lp_mul(laurent, g), g) == _lp_nonzero(laurent)


@st.composite
def scalars(draw, with_den=True):
    n0 = draw(polys)
    d = draw(nonzero_polys) if with_den else None
    return Scalar(n0, d=d)


@given(scalars(), st.sampled_from([REAL, UNIT]))
@settings(max_examples=100, deadline=None)
def test_bar_involutive(a, regime):
    assert a.bar(regime).bar(regime) == a


@given(scalars(), scalars(), st.sampled_from([REAL, UNIT]))
@settings(max_examples=100, deadline=None)
def test_bar_multiplicative(a, b, regime):
    assert (a * b).bar(regime) == a.bar(regime) * b.bar(regime)
    assert (a + b).bar(regime) == a.bar(regime) + b.bar(regime)


@given(st.one_of(scalars(), scalars(with_den=False)),
       st.sampled_from([REAL, UNIT]))
@settings(max_examples=200, deadline=None)
def test_bar_is_canonical_as_built(x, regime):
    # the bar over d = 1 skips the checking constructor; its dicts are the
    # ones that constructor gives, for the result and for the bar of x's
    # dicts rebuilt from scratch
    unit = regime is UNIT
    y = x.bar(regime)
    forms = (y.n0, y.d)
    again = Scalar(y.n0, d=y.d)
    assert (again.n0, again.d) == forms
    rebuilt = Scalar(_lp_bar(x.n0, unit), d=_lp_bar(x.d, unit))
    assert (rebuilt.n0, rebuilt.d) == forms


# --- sympy oracle: the ring on sympy's polynomials over Q(i) ---------------
#
# A Scalar n0/d maps to the pair (n0, d) of sympy polynomials in s over
# Q(i), both shifted by one power of s so that no exponent is negative.
# The ring operations take no gcd, and two values are equal when the
# numerator of their difference is zero.  So they share no code with the
# scalar kernel and do not depend on a canonical form.

class Oracle:

    def __init__(self):
        self.sympy = sympy = pytest.importorskip("sympy")
        self.ring, self.s = sympy.ring("s", sympy.QQ_I)
        self.QQ_I = sympy.QQ_I

    def gauss(self, c):
        QQ = self.sympy.QQ
        return self.QQ_I(QQ(c.a, c.d), QQ(c.b, c.d))

    def pair(self, n0, d):
        # n0/d for dicts {k: GaussRat}, both times s^-m
        m = min([0, *n0, *d])
        return tuple(self.ring.from_dict({(k - m,): self.gauss(c)
                                          for k, c in p.items()})
                     for p in (n0, d))

    def image(self, x):
        return self.pair(x.n0, x.d)

    def add(self, x, y):
        (a0, ad), (b0, bd) = x, y
        return a0 * bd + b0 * ad, ad * bd

    def times(self, x, y):
        (a0, ad), (b0, bd) = x, y
        return a0 * b0, ad * bd

    def inv(self, x):
        a0, ad = x
        return ad, a0

    def bar(self, x, regime):
        # conjugate every coefficient; |q| = 1 also sends s to 1/s, and
        # s^top then clears the denominators it makes
        top = max(p.degree() for p in x)

        def conj(p):
            return self.ring.from_dict({
                (top - k if regime is UNIT else k,): self.QQ_I(c.x, -c.y)
                for (k,), c in p.terms()})
        return tuple(conj(p) for p in x)

    def equal(self, x, y):
        (a0, ad), (b0, bd) = x, y
        return a0 * bd == b0 * ad


@given(polys, nonzero_polys, scalars(), st.sampled_from([REAL, UNIT]))
@settings(max_examples=60, deadline=None)
def test_ring_operations_match_sympy(n0, d, b, regime):
    oracle = Oracle()
    a = Scalar(n0, d=d)
    A, B = oracle.image(a), oracle.image(b)
    # the canonical form keeps the value of n0/d as given
    assert oracle.equal(A, oracle.pair(n0, d))
    assert oracle.equal(oracle.image(a + b), oracle.add(A, B))
    assert oracle.equal(oracle.image(a * b), oracle.times(A, B))
    if not a.is_zero():
        assert oracle.equal(oracle.image(a.inv()), oracle.inv(A))
    assert oracle.equal(oracle.image(a.bar(regime)), oracle.bar(A, regime))
    # at s = 1, in lowest terms
    num, den = A[0].cancel(A[1])
    if den(1):
        assert oracle.gauss(a.classical_limit()) == num(1) / den(1)
    else:
        with pytest.raises(PoleAtOne):
            a.classical_limit()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_equality_matches_sympy(data):
    oracle = Oracle()
    x, z = data.draw(scalars()), data.draw(scalars())
    assume(not z.is_zero())
    # y: another scalar; x plus a Laurent polynomial p; or x's value
    # rebuilt through z
    p = data.draw(polys)
    candidates = [z, x + Scalar(p), x * z / z, x + z - z]
    if not x.is_zero():
        candidates.append((x.inv() * z).inv() * z)
    y = data.draw(st.sampled_from(candidates))
    assert (x == y) == oracle.equal(oracle.image(x), oracle.image(y))


@given(scalars(), scalars(), scalars())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO


def naive_mul(a, b):
    # Laurent product term by term, with GaussRat * and + only
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, GaussRat(0)) + ca * cb
    return out


def naive_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, GaussRat(0)) + c
    return out


def reference_sum(pairs):
    # the sum of v*w over pairs, term by term over one common denominator,
    # then the canonicalising constructor: no code shared with the
    # product kernel, and zero coefficients left for the constructor to drop
    n0, d = {}, {0: GaussRat(1)}
    for v, w in pairs:
        e = naive_mul(v.d, w.d)
        n0 = naive_add(naive_mul(n0, e), naive_mul(naive_mul(v.n0, w.n0), d))
        d = naive_mul(d, e)
    return Scalar(n0, d=d)


def reference_product(v, w):
    return reference_sum([(v, w)])


# the right factors carry no denominator, which keeps the reference sum's
# gcds small; products of two denominators are covered in test_linalg
@given(st.lists(st.tuples(scalars(), scalars(with_den=False)), max_size=4))
@settings(max_examples=50, deadline=None)
def test_sum_of_products_matches_mul_and_add(pairs):
    total = Scalar.sum_of_products(pairs)
    expected = reference_sum(pairs)
    assert total == expected
    assert str(total) == str(expected)
    assert total == sum((v * w for v, w in pairs), ZERO)


# --- products that skip canonicalisation ------------------------------------

def forms(x):
    # copies of the canonical dicts, the only stored form of a Scalar
    return dict(x.n0), dict(x.d)


def assert_same_canonical(got, expected):
    assert forms(got) == forms(expected) and str(got) == str(expected)
    assert forms(Scalar(got.n0, d=got.d)) == forms(got)


def assert_forms_kept(factors, before):
    # the factors' dicts are unchanged, and rebuilding them changes nothing
    assert [forms(x) for x in factors] == before
    assert [forms(Scalar(x.n0, d=x.d)) for x in factors] == before


# integer Gaussian coefficients keep example generation cheap
int_polys = st.dictionaries(st.integers(-3, 3),
                            st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3)),
                            max_size=3)
int_laurent = st.builds(Scalar, int_polys)
int_rational = st.builds(
    Scalar, int_polys,
    d=int_polys.filter(lambda p: any(not v.is_zero() for v in p.values())))
unit_monomials = st.builds(
    lambda c, k: Scalar({k: c}),
    st.sampled_from([GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1),
                     GaussRat(2), GaussRat(Fraction(-1, 3))]),
    st.integers(-3, 3))


@given(unit_monomials, int_rational, st.booleans())
@example(ONE, -ONE, True)  # two units: the factor 1 still returns the other
@settings(max_examples=100, deadline=None)
def test_unit_monomial_product_is_canonical(u, x, swap):
    pair = (x, u) if swap else (u, x)
    before = [forms(u), forms(x)]
    expected = reference_product(*pair)
    assert_same_canonical(Scalar.sum_of_products([pair]), expected)
    assert_same_canonical(pair[0] * pair[1], expected)
    assert_same_canonical(-x, reference_product(x, -ONE))
    if u == ONE:  # a factor object itself, not a copy
        for product in (Scalar.sum_of_products([pair]), u * x):
            assert any(product is f for f in pair)
    assert_forms_kept([u, x], before)


@given(unit_monomials)
@settings(max_examples=50, deadline=None)
def test_unit_monomial_inverse_is_canonical(u):
    # the constructor's path, over the denominator u itself
    assert_same_canonical(u.inv(), Scalar(dict(ONE.n0), d=dict(u.n0)))
    assert u * u.inv() == ONE


# coefficients over 1, 2 and 3 sum over different denominators in the
# product kernel
laurent = st.one_of(int_laurent, scalars(with_den=False))


@given(st.lists(st.tuples(laurent, laurent), max_size=4))
@settings(max_examples=100, deadline=None)
def test_polynomial_sum_of_products_is_canonical(pairs):
    before = [forms(x) for pair in pairs for x in pair]
    expected = reference_sum(pairs)
    total = Scalar.sum_of_products(pairs)
    assert_same_canonical(total, expected)
    assert total.d == {0: GaussRat(1)}
    assert_forms_kept([x for pair in pairs for x in pair], before)


@given(unit_monomials, int_laurent, int_rational)
@settings(max_examples=100, deadline=None)
def test_equal_scalars_hash_equal_however_built(u, p, r):
    # u*p built four ways: the canonicalising constructor, a unit product,
    # the polynomial branch and the per-pair rational branch, each of the
    # last two with a pair of products that cancel
    r = r / (ONE + S)
    assume(len(r.d) > 1)
    built = [reference_product(u, p),
             Scalar.sum_of_products([(u, p)]),
             Scalar.sum_of_products([(u, p), (p, p), (-p, p)]),
             Scalar.sum_of_products([(u, p), (r, p), (-r, p)])]
    assert all(a == built[0] for a in built)
    for a in built + [u, p, r]:
        assert a == Scalar(a.n0, d=a.d)
        for b in built + [u, p, r]:
            if a == b:
                assert hash(a) == hash(b)


@given(scalars(), scalars())
@settings(max_examples=100, deadline=None)
def test_division_roundtrip(a, b):
    if b.is_zero():
        with pytest.raises(DivisionByZero):
            a / b
    else:
        assert (a / b) * b == a


# --- classical limit -------------------------------------------------------

def test_classical_limit_values():
    assert (Q - ONE / Q).classical_limit() == GaussRat(0)
    assert Scalar.q_power(Fraction(-1, 2)).classical_limit() == GaussRat(1)
    assert sp(-2).classical_limit() == GaussRat(1)
    assert ((Q - ONE / Q) / (S - ONE / S)).classical_limit() == GaussRat(2)


def test_classical_limit_errors():
    with pytest.raises(PoleAtOne):
        (ONE / (S - ONE)).classical_limit()


@given(scalars(with_den=False), scalars(with_den=False))
@settings(max_examples=100, deadline=None)
def test_classical_limit_homomorphism(a, b):
    assert (a + b).classical_limit() == a.classical_limit() + b.classical_limit()
    assert (a * b).classical_limit() == a.classical_limit() * b.classical_limit()


# --- wire format -----------------------------------------------------------

def test_text_format():
    assert str(ZERO) == "0"
    assert str(ONE) == "1*s^0"
    assert str(Q) == "1*s^2"
    assert str(Q - ONE / Q) == "-1*s^-2 + 1*s^2"
    assert str(I) == "0+1*i*s^0"
    half = Scalar({0: GaussRat(Fraction(1, 2), Fraction(-3, 4))})
    assert str(half) == "1/2+-3/4*i*s^0"
    assert str(ONE / (S - ONE)) == "(1*s^0)/(-1*s^0 + 1*s^1)"


def test_q_power_rejects_non_half_integers():
    with pytest.raises(ValueError):
        Scalar.q_power(Fraction(1, 3))


@given(st.integers(-60, 60))
def test_q_power_of_int_equals_q_power_of_fraction(k):
    assert Scalar.q_power(k) == Scalar.q_power(Fraction(k))
    assert str(Scalar.q_power(k)) == f"1*s^{2 * k}"


# --- operator contract: one operand type, exact constructor input -----------

@pytest.mark.parametrize("build", [
    GaussRat, lambda x: GaussRat(0, x), Scalar.from_frac, Scalar.q_power,
], ids=["gaussrat_re", "gaussrat_im", "from_frac", "q_power"])
@pytest.mark.parametrize("value", [0.1, 0.5, "1/3"])
def test_constructors_take_only_int_or_fraction(build, value):
    # 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        build(value)


def test_constructors_keep_int_and_fraction_input():
    g = GaussRat(3, -2)
    assert (g.a, g.b, g.d) == (3, -2, 1)
    g = GaussRat(Fraction(1, 3), Fraction(-1, 2))
    assert (g.a, g.b, g.d) == (2, -3, 6)
    assert str(Scalar.from_frac(Fraction(-1, 3))) == "-1/3*s^0"
    assert str(Scalar.q_power(Fraction(-1, 2))) == "1*s^-1"
    assert str(Scalar.q_power(2)) == "1*s^4"


@pytest.mark.parametrize("value", [1, Fraction(1, 2), ONE])
def test_from_gauss_takes_only_gaussrat(value):
    with pytest.raises(TypeError, match="GaussRat"):
        Scalar.from_gauss(value)
    assert Scalar.from_gauss(GaussRat(1)) == ONE


@pytest.mark.parametrize("x, one, foreign", [
    (Q, ONE, GaussRat(1)),
    (GaussRat(Fraction(2, 3), 1), GaussRat(1), ONE),
], ids=["Scalar", "GaussRat"])
def test_ring_operators_take_one_operand_type(x, one, foreign):
    for other in (2, Fraction(1, 2), foreign):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
    # == across types is False, so equal values never need equal hashes
    assert not one == 1 and not one == Fraction(1) and not one == foreign
    assert one != 1 and len({one, 1}) == 2
    # a Scalar declines a matrix or a polynomial, which multiply by it
    I2, x1 = SqMat.identity(2), NCPoly.gen(1)
    assert Scalar.__mul__(Q, I2) is NotImplemented
    assert Q * I2 == I2.scale(Q)
    assert Scalar.__mul__(Q, x1) is NotImplemented
    assert Q * x1 == NCPoly({(1,): Q})


# --- sparse sums store no key whose sum cancels ------------------------------
# Each case returns the term map one user of `scalars._accumulate` built, and
# the keys it must hold.

def cancel_scalar_add():
    x, y = ONE + S * Q, Q - S * Q
    assert x + y == ONE + Q
    return _lp_add(x.n0, y.n0), {0, 2}


def cancel_lp_divmod():
    a = {0: GaussRat(1), 1: GaussRat(1)}
    b = {0: GaussRat(-1), 2: GaussRat(1)}
    quo, rem = _lp_divmod(_lp_mul(a, b), b)
    assert quo == a
    return rem, set()


def cancel_sqmat_add():
    A = SqMat(2, {(1, 1): ONE + S, (1, 2): I * Q, (2, 2): Q})
    return (A + (-A)).entries, set()


def cancel_row_reduce():
    row = {0: S, 2: ONE + S, 3: I * Q}
    basis = row_reduce([row, dict(row)])
    assert len(basis) == 1
    return basis[0][1], set(row)


def cancel_ncpoly_add():
    p = NCPoly({(1, 2): S, (2,): I * Q, (): ONE})
    return (p + (-p)).terms, set()


def cancel_ncpoly_mul():
    # x1 x2 x3 comes from x1 * x2x3 and from -x1x2 * x3
    p = NCPoly({(1,): ONE, (1, 2): ONE})
    r = NCPoly({(2, 3): ONE, (3,): -ONE})
    return (p * r).terms, {(1, 3), (1, 2, 2, 3)}


def cancel_normal_form():
    # the quantum plane x1 x2 = q x2 x1: its relation rewrites to zero
    rs = RewriteSystem(2, {(1, 2): NCPoly.word((2, 1), Q)})
    rel = NCPoly.word((1, 2)) - NCPoly.word((2, 1), Q)
    assert normal_form(rel, rs).is_zero()
    return _normalize_terms(rel.terms, rs.pair_rules, rs.letter_rules), set()


@pytest.mark.parametrize("case", [
    cancel_scalar_add, cancel_lp_divmod, cancel_sqmat_add, cancel_row_reduce,
    cancel_ncpoly_add, cancel_ncpoly_mul, cancel_normal_form,
], ids=lambda case: case.__name__[len("cancel_"):])
def test_cancelling_sum_stores_no_key(case):
    terms, keys = case()
    assert set(terms) == keys
    assert not any(v.is_zero() for v in terms.values())
