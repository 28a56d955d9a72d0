"""Exact coefficient arithmetic for the deformation parameter.

The base ring is the Laurent polynomial ring Q(i)[s, s^-1] in s = q^(1/2)
(half-integer powers of q occur in the metric and the R matrix for odd
dimension, so s rather than q is the variable).  It is optionally extended
by a single generator t with t^2 = s + s^-1, reduced eagerly, and by
fractions: a Scalar is num/den with den a nonzero t-free Laurent
polynomial.  Canonical form is unique: num and den are coprime, den has
lowest s-power 0 and leading coefficient 1.  All arithmetic is exact and
equality is structural equality of canonical forms.

`GaussRat` and `Scalar` operators take their own type only: mixing types
raises TypeError and `==` across types is False.  Constructors take int or
Fraction values, never floats or strings.

Conjugation (bar) comes in two regimes: q real fixes s, |q| = 1 sends
s to s^-1; both conjugate the Gaussian-rational coefficients and fix t.
"""

import enum
import math
from fractions import Fraction

from .errors import DivisionByZero, PoleAtOne, ResidualT


class ConjRegime(enum.Enum):
    REAL_Q = "real"
    UNIT_MODULUS_Q = "unit"


class GaussRat:
    """Gaussian rational (a + b*i)/d held as three ints in lowest terms:
    d > 0 and gcd(a, b, d) = 1, so equal values have equal fields.  Each
    operation costs at most one `math.gcd`, and none when d comes out 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = _exact_rational(re), _exact_rational(im)
        p, r = re.denominator, im.denominator
        d = p * r // math.gcd(p, r)  # lcm of lowest-terms denominators is lowest
        self.a, self.b, self.d = re.numerator * (d // p), im.numerator * (d // r), d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if type(other) is not GaussRat:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _gauss(self.a + other.a, self.b + other.b, d)
        return _gauss(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other):
        if type(other) is not GaussRat:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _gauss(self.a - other.a, self.b - other.b, d)
        return _gauss(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self):
        return _exact(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not GaussRat:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _gauss(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other):
        if type(other) is not GaussRat:
            return NotImplemented
        return self * other.inv()

    def inv(self):
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise DivisionByZero("inverse of zero Gaussian rational")
        return _gauss(d * a, -d * b, n)

    def conj(self):
        return _exact(self.a, -self.b, self.d)

    def is_zero(self):
        return not self.a and not self.b

    def is_one(self):
        return self.a == 1 and self.d == 1 and not self.b

    def __eq__(self, other):
        if type(other) is not GaussRat:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __str__(self):
        # wire format: "a/b" when real, "a/b+c/d*i" otherwise; signs live
        # inside the fractions so the grammar stays concatenative
        if not self.b:
            return str(self.re)
        return f"{self.re}+{self.im}*i"

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


def _exact(a, b, d):
    # (a + b i)/d, already in lowest terms
    g = object.__new__(GaussRat)
    g.a, g.b, g.d = a, b, d
    return g


def _gauss(a, b, d):
    # (a + b i)/d for any d != 0, reduced to lowest terms
    if d != 1:
        g = math.gcd(a, b, d)
        if d < 0:
            g = -g
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _exact(a, b, d)


def _exact_rational(x):
    # a float would be rounded and a string parsed: neither is exact input
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, not {type(x).__name__}")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Laurent polynomial helpers: dict {exponent: GaussRat}, zero coeffs absent.

def _accumulate(out, key, value):
    # out[key] += value in place, dropping the key when the sum is zero: the
    # one sparse sum behind every term map (Laurent, matrix, word)
    w = out.get(key)
    if w is not None:
        value = w + value
    if value.is_zero():
        out.pop(key, None)
    else:
        out[key] = value


def _lp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        _accumulate(out, k, v)
    return out


def _lp_neg(a):
    return {k: -v for k, v in a.items()}


def _lp_scale(a, c):
    if c.is_zero():
        return {}
    return {k: v * c for k, v in a.items()}


def _lp_mul(a, b):
    return _lp_settle(_lp_addmul({}, a, b, (0,)))


def _lp_addmul(out, a, b, shifts):
    # out += (sum over shifts of s^shift) * a * b, in place, as raw [re, im,
    # den] int lists (zeros kept) that `_lp_settle` reduces once; returns out
    for ka, va in a.items():
        xa, xb, xd = va.a, va.b, va.d
        for kb, vb in b.items():
            ya, yb, d = vb.a, vb.b, xd * vb.d
            pa, pb = xa * ya - xb * yb, xa * yb + xb * ya
            for k in shifts:
                k += ka + kb
                w = out.get(k)
                if w is None:
                    out[k] = [pa, pb, d]
                elif w[2] == d:
                    w[0] += pa
                    w[1] += pb
                else:  # over the product of the two dens
                    w[:] = w[0] * d + pa * w[2], w[1] * d + pb * w[2], w[2] * d
    return out


def _lp_settle(raw):
    # reduce each raw `_lp_addmul` coefficient, dropping zeros
    return {k: _gauss(a, b, d) for k, (a, b, d) in raw.items() if a or b}


def _lp_nonzero(a):
    return {k: v for k, v in a.items() if not v.is_zero()}


def _lp_shift(a, k):
    if k == 0:
        return dict(a)
    return {e + k: v for e, v in a.items()}


def _lp_bar(a, unit):
    if unit:
        return {-k: v.conj() for k, v in a.items()}
    return {k: v.conj() for k, v in a.items()}


def _lp_eval1(a):
    out = GaussRat(0)
    for v in a.values():
        out = out + v
    return out


def _lp_divmod(a, b):
    # ordinary polynomial division; exponents of a and b must be >= 0
    q = {}
    r = dict(a)
    db = max(b)
    lb = b[db]
    while r:
        dr = max(r)
        if dr < db:
            break
        c = r[dr] / lb
        q[dr - db] = c
        c = -c  # r += (-c) * s^(dr - db) * b
        for k, v in b.items():
            _accumulate(r, k + dr - db, c * v)
    return q, r


def _lp_ground(a):
    # shift a Laurent polynomial so its lowest exponent is 0
    if not a:
        return {}
    return _lp_shift(a, -min(a))


def _lp_gcd(a, b):
    # monic gcd of grounded polynomials (Euclid over Q(i)[s])
    a, b = _lp_monic(a), _lp_monic(b)
    while b:
        a, b = b, _lp_monic(_lp_divmod(a, b)[1])
    return a


def _lp_monic(a):
    # grounded, leading coefficient 1: keeps Euclid's coefficients small
    if not a:
        return {}
    a = _lp_ground(a)
    return _lp_scale(a, a[max(a)].inv())


def _lp_divexact(a, g):
    # divide a Laurent polynomial by a grounded divisor with g(0) != 0
    if not a:
        return {}
    lo = min(a)
    q, r = _lp_divmod(_lp_shift(a, -lo), g)
    if r:
        raise AssertionError("inexact Laurent division")
    return _lp_shift(q, lo)


_ONE_POLY = {0: GaussRat(1)}


# ---------------------------------------------------------------------------

class Scalar:
    """Element (n0 + t*n1)/d of the extended Laurent ring, t^2 = s + s^-1.

    Instances are immutable and kept in canonical form at all times; the
    canonical dicts n0, n1 and d are the only stored form.
    """

    __slots__ = ("n0", "n1", "d")

    def __init__(self, n0=None, n1=None, d=None):
        n0, n1 = _lp_nonzero(n0 or {}), _lp_nonzero(n1 or {})
        d = _lp_nonzero(_ONE_POLY if d is None else d)
        if not d:
            raise DivisionByZero("zero denominator")
        if not n0 and not n1:
            d = dict(_ONE_POLY)
        elif len(d) == 1:
            # monomial denominator: absorb it into the numerator
            (k, c), = d.items()
            if k or not c.is_one():
                ci = c.inv()
                n0 = _lp_shift(_lp_scale(n0, ci), -k)
                n1 = _lp_shift(_lp_scale(n1, ci), -k)
                d = dict(_ONE_POLY)
        else:
            g = _lp_gcd(_lp_gcd(d, n0), n1)
            if len(g) > 1 or (g and 0 not in g):
                n0 = _lp_divexact(n0, g)
                n1 = _lp_divexact(n1, g)
                d = _lp_divexact(d, g)
            lo = min(d)
            if lo:
                n0, n1, d = _lp_shift(n0, -lo), _lp_shift(n1, -lo), _lp_shift(d, -lo)
            lc = d[max(d)]
            if not lc.is_one():
                ci = lc.inv()
                n0, n1, d = _lp_scale(n0, ci), _lp_scale(n1, ci), _lp_scale(d, ci)
        self.n0, self.n1, self.d = n0, n1, d

    @staticmethod
    def _of(n0, n1, d):
        """Trusted constructor: (n0 + t*n1)/d is already canonical, with no
        zero coefficients, and no caller mutates the dicts afterwards."""
        x = Scalar.__new__(Scalar)
        x.n0, x.n1, x.d = n0, n1, d
        return x

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def from_gauss(g):
        return Scalar({0: g})

    @staticmethod
    def from_frac(x):
        return Scalar({0: GaussRat(x)})

    @staticmethod
    def i_unit():
        return Scalar({0: GaussRat(0, 1)})

    @staticmethod
    def q_power(p):
        # q = s^2; p may be a half-integer
        e = _exact_rational(p) * 2
        if e.denominator != 1:
            raise ValueError(f"q^{p} is not an integer power of s")
        return Scalar({int(e): GaussRat(1)})

    @staticmethod
    def t_unit():
        return Scalar(None, {0: GaussRat(1)})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        if self.d == other.d:
            return Scalar(_lp_add(self.n0, other.n0), _lp_add(self.n1, other.n1), self.d)
        return Scalar(
            _lp_add(_lp_mul(self.n0, other.d), _lp_mul(other.n0, self.d)),
            _lp_add(_lp_mul(self.n1, other.d), _lp_mul(other.n1, self.d)),
            _lp_mul(self.d, other.d))

    def __sub__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _unit_product(self, _MINUS_ONE)

    def __mul__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return Scalar.sum_of_products([(self, other)])

    @staticmethod
    def sum_of_products(pairs):
        """The sum of v*w over a list of (v, w) Scalar pairs; `v * w` is
        this sum for the one pair (v, w).

        A single pair with a unit monomial factor c*s^k, and pairs whose
        denominators are all 1, give the canonical result directly, with no
        gcd.  Otherwise each product is canonicalised once over dv*dw and
        the products are added with `+`.  The subcommands multiply only
        matrices with polynomial entries, so a pair with a denominator
        comes alone (`v * w`, row reduction); the sum starts from the first
        product, not from zero, so such a pair costs one canonicalisation.
        """
        if len(pairs) == 1:
            x = _unit_product(*pairs[0])
            if x is not None:
                return x
        if all(len(v.d) == 1 and len(w.d) == 1 for v, w in pairs):
            n0, n1 = {}, {}
            for v, w in pairs:
                _add_product(v, w, n0, n1)
            return Scalar._of(_lp_settle(n0), _lp_settle(n1), _ONE_POLY)
        total = None
        for v, w in pairs:
            n0, n1 = {}, {}
            _add_product(v, w, n0, n1)
            term = Scalar(_lp_settle(n0), _lp_settle(n1), _lp_mul(v.d, w.d))
            total = term if total is None else total + term
        return total

    def __truediv__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return self * other.inv()

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        # 1/(n0 + t n1) rationalized with the conjugate n0 - t n1
        norm = _lp_addmul({}, self.n0, self.n0, (0,))
        _lp_addmul(norm, _lp_neg(self.n1), self.n1, (1, -1))
        return Scalar(_lp_mul(self.d, self.n0),
                      _lp_neg(_lp_mul(self.d, self.n1)),
                      _lp_settle(norm))

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.n0 and not self.n1

    def as_gauss(self):
        """The value of a constant scalar; None if not constant."""
        if self.n1 or self.d != _ONE_POLY or len(self.n0) > (1 if 0 in self.n0 else 0):
            return None
        return self.n0.get(0, GaussRat(0))

    def bar(self, regime):
        unit = regime is ConjRegime.UNIT_MODULUS_Q
        return Scalar(_lp_bar(self.n0, unit), _lp_bar(self.n1, unit), _lp_bar(self.d, unit))

    def classical_limit(self):
        if self.n1:
            raise ResidualT(f"t survives in {self}")
        dv = _lp_eval1(self.d)
        if dv.is_zero():
            raise PoleAtOne(f"denominator of {self} vanishes at s=1")
        return _lp_eval1(self.n0) / dv

    def __eq__(self, other):
        """Equality of the canonical dicts, exact because canonical forms
        are unique and hold no zero coefficients; the hash is taken from
        the same dicts, frozen."""
        if type(other) is not Scalar:
            return NotImplemented
        return self.n0 == other.n0 and self.n1 == other.n1 and self.d == other.d

    def __hash__(self):
        return hash((_freeze(self.n0), _freeze(self.n1), _freeze(self.d)))

    def __str__(self):
        terms = [f"{c}*s^{k}" for k, c in sorted(self.n0.items())]
        terms += [f"{c}*t*s^{k}" for k, c in sorted(self.n1.items())]
        num = " + ".join(terms) if terms else "0"
        if self.d == _ONE_POLY:
            return num
        den = " + ".join(f"{c}*s^{k}" for k, c in sorted(self.d.items()))
        return f"({num})/({den})"

    def __repr__(self):
        return f"<Scalar {self}>"


def _freeze(p):
    return tuple(sorted((k, v.a, v.b, v.d) for k, v in p.items()))


def _unit_product(v, w):
    # v*w when one factor is a unit monomial c*s^k, else None.  A unit
    # times a canonical Scalar is canonical: only its numerator changes.
    # Of two units, a factor 1 is taken as the unit, so the other comes back.
    if len(v.n0) == 1 and not v.n1 and len(v.d) == 1 and (
            len(w.n0) != 1 or w.n1 or len(w.d) != 1 or v.n0 == _ONE_POLY):
        v, w = w, v
    elif len(w.n0) != 1 or w.n1 or len(w.d) != 1:
        return None
    (k, c), = w.n0.items()  # w is now the unit
    if c.is_one():
        if not k:
            return v
        return Scalar._of({e + k: a for e, a in v.n0.items()},
                          {e + k: a for e, a in v.n1.items()}, v.d)
    return Scalar._of({e + k: a * c for e, a in v.n0.items()},
                      {e + k: a * c for e, a in v.n1.items()}, v.d)


def _add_product(v, w, n0, n1):
    # n0 + t*n1 += numerator of v*w, in place, as raw `_lp_addmul` sums:
    # (a0 + t a1)(b0 + t b1) = a0 b0 + (s + s^-1) a1 b1 + t (a0 b1 + a1 b0)
    _lp_addmul(n0, v.n0, w.n0, (0,))
    if v.n1 or w.n1:
        _lp_addmul(n0, v.n1, w.n1, (1, -1))
        _lp_addmul(n1, v.n0, w.n1, (0,))
        _lp_addmul(n1, v.n1, w.n0, (0,))


_ZERO = Scalar()
_ONE = Scalar({0: GaussRat(1)})
_MINUS_ONE = Scalar({0: GaussRat(-1)})

