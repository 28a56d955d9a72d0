"""Exact coefficient arithmetic for the deformation parameter.

The base ring is the Laurent polynomial ring Q(i)[s, s^-1] in s = q^(1/2)
(half-integer powers of q occur in the metric and the R matrix for odd
dimension, so s rather than q is the variable).  It is optionally extended
by a single generator t with t^2 = s + s^-1, reduced eagerly, and by
fractions: a Scalar is num/den with den a nonzero t-free Laurent
polynomial.  Canonical form is unique: num and den are coprime, den has
lowest s-power 0 and leading coefficient 1.  All arithmetic is exact and
equality is structural equality of canonical forms.

Conjugation (bar) comes in two regimes: q real fixes s, |q| = 1 sends
s to s^-1; both conjugate the Gaussian-rational coefficients and fix t.
"""

import enum
from fractions import Fraction

from .errors import DivisionByZero, PoleAtOne, ResidualT


class ConjRegime(enum.Enum):
    REAL_Q = "real"
    UNIT_MODULUS_Q = "unit"


class GaussRat:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _try_gauss(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _try_gauss(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_gauss(other) - self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        other = _try_gauss(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _as_gauss(other).inv()

    def __rtruediv__(self, other):
        return _as_gauss(other) * self.inv()

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise DivisionByZero("inverse of zero Gaussian rational")
        return GaussRat(self.re / n, -self.im / n)

    def conj(self):
        return GaussRat(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        # wire format: "a/b" when real, "a/b+c/d*i" otherwise; signs live
        # inside the fractions so the grammar stays concatenative
        if self.im == 0:
            return str(self.re)
        return f"{self.re}+{self.im}*i"

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


def _try_gauss(x):
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    return None


def _as_gauss(x):
    g = _try_gauss(x)
    if g is None:
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussRat")
    return g


# ---------------------------------------------------------------------------
# Laurent polynomial helpers: dict {exponent: GaussRat}, zero coeffs absent.

def _lp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        w = v if w is None else w + v
        if w.is_zero():
            out.pop(k, None)
        else:
            out[k] = w
    return out


def _lp_neg(a):
    return {k: -v for k, v in a.items()}


def _lp_scale(a, c):
    if c.is_zero():
        return {}
    return {k: v * c for k, v in a.items()}


def _lp_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            w = out.get(k)
            w = va * vb if w is None else w + va * vb
            if w.is_zero():
                out.pop(k, None)
            else:
                out[k] = w
    return out


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
        for k, v in b.items():
            e = k + dr - db
            w = r.get(e)
            w = -(c * v) if w is None else w - c * v
            if w.is_zero():
                r.pop(e, None)
            else:
                r[e] = w
    return q, r


def _lp_ground(a):
    # shift a Laurent polynomial so its lowest exponent is 0
    if not a:
        return {}
    return _lp_shift(a, -min(a))


def _lp_gcd(a, b):
    # monic gcd of grounded polynomials (Euclid over Q(i)[s])
    a, b = _lp_ground(a), _lp_ground(b)
    while b:
        a, b = b, _lp_divmod(a, b)[1]
        b = _lp_ground(b)
    if not a:
        return {}
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

    Instances are immutable and kept in canonical form at all times.
    """

    __slots__ = ("n0", "n1", "d", "_key")

    def __init__(self, n0=None, n1=None, d=None):
        n0 = {k: v for k, v in (n0 or {}).items() if not v.is_zero()}
        n1 = {k: v for k, v in (n1 or {}).items() if not v.is_zero()}
        d = {k: v for k, v in (d if d is not None else _ONE_POLY).items() if not v.is_zero()}
        if not d:
            raise DivisionByZero("zero denominator")
        if not n0 and not n1:
            d = dict(_ONE_POLY)
        elif len(d) == 1:
            # monomial denominator: absorb it into the numerator
            (k, c), = d.items()
            ci = c.inv()
            n0 = _lp_shift(_lp_scale(n0, ci), -k)
            n1 = _lp_shift(_lp_scale(n1, ci), -k)
            d = dict(_ONE_POLY)
        else:
            g = _lp_gcd(d, _lp_gcd(n0, n1))
            if len(g) > 1 or (g and 0 not in g):
                n0 = _lp_divexact(n0, g)
                n1 = _lp_divexact(n1, g)
                d = _lp_divexact(d, g)
            lo = min(d)
            if lo:
                n0, n1, d = _lp_shift(n0, -lo), _lp_shift(n1, -lo), _lp_shift(d, -lo)
            lc = d[max(d)]
            if not (lc.re == 1 and lc.im == 0):
                ci = lc.inv()
                n0, n1, d = _lp_scale(n0, ci), _lp_scale(n1, ci), _lp_scale(d, ci)
        self.n0, self.n1, self.d = n0, n1, d
        self._key = (_freeze(n0), _freeze(n1), _freeze(d))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def from_gauss(g):
        return Scalar({0: _as_gauss(g)})

    @staticmethod
    def from_frac(x):
        return Scalar({0: GaussRat(x)})

    @staticmethod
    def i_unit():
        return Scalar({0: GaussRat(0, 1)})

    @staticmethod
    def s_power(k):
        return Scalar({int(k): GaussRat(1)})

    @staticmethod
    def q_power(p):
        # q = s^2; p may be a half-integer
        e = Fraction(p) * 2
        if e.denominator != 1:
            raise ValueError(f"q^{p} is not an integer power of s")
        return Scalar({int(e): GaussRat(1)})

    @staticmethod
    def t_unit():
        return Scalar(None, {0: GaussRat(1)})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _try_scalar(other)
        if other is None:
            return NotImplemented
        if self.d == other.d:
            return Scalar(_lp_add(self.n0, other.n0), _lp_add(self.n1, other.n1), self.d)
        return Scalar(
            _lp_add(_lp_mul(self.n0, other.d), _lp_mul(other.n0, self.d)),
            _lp_add(_lp_mul(self.n1, other.d), _lp_mul(other.n1, self.d)),
            _lp_mul(self.d, other.d))

    __radd__ = __add__

    def __sub__(self, other):
        other = _try_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_scalar(other) + (-self)

    def __neg__(self):
        return Scalar(_lp_neg(self.n0), _lp_neg(self.n1), self.d)

    def __mul__(self, other):
        other = _try_scalar(other)
        if other is None:
            return NotImplemented
        # (a0 + t a1)(b0 + t b1) = a0 b0 + (s + s^-1) a1 b1 + t (a0 b1 + a1 b0)
        n0 = _lp_add(_lp_mul(self.n0, other.n0),
                     _lp_mul(_T_SQUARE, _lp_mul(self.n1, other.n1)))
        n1 = _lp_add(_lp_mul(self.n0, other.n1), _lp_mul(self.n1, other.n0))
        return Scalar(n0, n1, _lp_mul(self.d, other.d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _try_scalar(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return _as_scalar(other) * self.inv()

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        # 1/(n0 + t n1) rationalized with the conjugate n0 - t n1
        norm = _lp_add(_lp_mul(self.n0, self.n0),
                       _lp_neg(_lp_mul(_T_SQUARE, _lp_mul(self.n1, self.n1))))
        return Scalar(_lp_mul(self.d, self.n0),
                      _lp_neg(_lp_mul(self.d, self.n1)),
                      norm)

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.n0 and not self.n1

    def has_t(self):
        return bool(self.n1)

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
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Scalar({0: _as_gauss(other)})
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

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
    return tuple(sorted((k, v.re, v.im) for k, v in p.items()))


def _try_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar({0: GaussRat(x)})
    if isinstance(x, GaussRat):
        return Scalar({0: x})
    return None


def _as_scalar(x):
    v = _try_scalar(x)
    if v is None:
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")
    return v


_T_SQUARE = {1: GaussRat(1), -1: GaussRat(1)}  # t^2 = s + s^-1
_ZERO = Scalar()
_ONE = Scalar({0: GaussRat(1)})

