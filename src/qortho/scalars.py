"""Exact coefficient arithmetic for the deformation parameter.

The ring is the Laurent polynomial ring Q(i)[s, s^-1] in s = q^(1/2)
(half-integer powers of q occur in the metric and the R matrix for odd
dimension, so s rather than q is the variable).  A Scalar is one term map
with no zero coefficients, which is unique, so equality is structural.
Only the units c*s^k are invertible; a quotient such as a projector is
kept as a Laurent numerator over a separate Laurent denominator by its
builder.  All arithmetic is exact.

`GaussRat` and `Scalar` operators take their own type only: mixing types
raises TypeError and `==` across types is False.  Constructors take int or
Fraction values, never floats or strings.

Conjugation (bar) comes in two regimes: q real fixes s, |q| = 1 sends
s to s^-1; both conjugate the Gaussian-rational coefficients.
"""

import enum
import math

from .errors import DivisionByZero, NotUnit


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
        from fractions import Fraction  # off the start-up path
        return Fraction(self.a, self.d)

    @property
    def im(self):
        from fractions import Fraction
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
            return _ratio_str(self.a, self.d)
        return f"{_ratio_str(self.a, self.d)}+{_ratio_str(self.b, self.d)}*i"

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


def _ratio_str(n, d):
    # str(Fraction(n, d)) for d > 0: n/d in lowest terms, "n" when d is 1
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _exact_rational(x):
    # an int as it is (it has .numerator and .denominator), else a Fraction;
    # a float would be rounded and a string parsed: neither is exact input.
    # fractions is imported for non-int input only, off the start-up path.
    if isinstance(x, int):
        return x
    from fractions import Fraction
    if not isinstance(x, Fraction):
        raise TypeError(f"expected int or Fraction, not {type(x).__name__}")
    return x


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


def _lp_addmul(out, a, b):
    # out += a * b, in place, as raw [re, im, den] int lists (zeros kept)
    # that `_lp_settle` reduces once
    for ka, va in a.items():
        xa, xb, xd = va.a, va.b, va.d
        for kb, vb in b.items():
            ya, yb, d = vb.a, vb.b, xd * vb.d
            pa, pb = xa * ya - xb * yb, xa * yb + xb * ya
            k = ka + kb
            w = out.get(k)
            if w is None:
                out[k] = [pa, pb, d]
            elif w[2] == d:
                w[0] += pa
                w[1] += pb
            else:  # over the product of the two dens
                w[:] = w[0] * d + pa * w[2], w[1] * d + pb * w[2], w[2] * d


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
    c = a[max(a)].inv()
    return {k: v * c for k, v in a.items()}


def _lp_divexact(a, g):
    # divide a Laurent polynomial by a grounded divisor with g(0) != 0
    if not a:
        return {}
    lo = min(a)
    q, r = _lp_divmod(_lp_shift(a, -lo), g)
    if r:
        raise AssertionError("inexact Laurent division")
    return _lp_shift(q, lo)


_GAUSS_ONE = GaussRat(1)


# ---------------------------------------------------------------------------

class Scalar:
    """Element of the Laurent ring Q(i)[s, s^-1], held as its term map n0
    {exponent: nonzero GaussRat}.

    The term map is the canonical form: equal values have equal maps.  The
    attribute cannot be rebound or deleted; the dict is shared between
    Scalars and must not be mutated.
    """

    __slots__ = ("n0",)

    def __init__(self, n0):
        object.__setattr__(self, "n0", _lp_nonzero(n0))

    @staticmethod
    def _of(n0):
        """Trusted constructor: n0 has no zero coefficients, and no caller
        mutates the dict afterwards."""
        x = Scalar.__new__(Scalar)
        object.__setattr__(x, "n0", n0)
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"Scalar is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Scalar is immutable: cannot delete {name!r}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def from_gauss(g):
        if type(g) is not GaussRat:
            raise TypeError(f"from_gauss takes a GaussRat, not {type(g).__name__}")
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
        return _s_power(int(e))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return Scalar._of(_lp_add(self.n0, other.n0))

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
        this sum for the one pair (v, w).  A single pair with a unit
        monomial factor c*s^k is its other factor's terms shifted and
        scaled; otherwise every coefficient product is accumulated as raw
        ints and each sum is reduced once."""
        if len(pairs) == 1:
            x = _unit_product(*pairs[0])
            if x is not None:
                return x
        n0 = {}
        for v, w in pairs:
            _lp_addmul(n0, v.n0, w.n0)
        return Scalar._of(_lp_settle(n0))

    def inv(self):
        """The inverse of a unit c*s^k, which is c^-1 s^-k.  The units are
        the only invertible elements of the ring: NotUnit for any other
        nonzero value, DivisionByZero for zero."""
        if len(self.n0) != 1:
            if not self.n0:
                raise DivisionByZero("inverse of zero scalar")
            raise NotUnit(f"{self} is not a unit c*s^k")
        (k, c), = self.n0.items()
        return Scalar._of({-k: c.inv()})

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.n0

    def as_gauss(self):
        """The value of a constant scalar; None if not constant."""
        if len(self.n0) > (1 if 0 in self.n0 else 0):
            return None
        return self.n0.get(0, GaussRat(0))

    def bar(self, regime):
        # canonical as built: conjugation keeps every coefficient nonzero
        return Scalar._of(_lp_bar(self.n0, regime is ConjRegime.UNIT_MODULUS_Q))

    def classical_limit(self):
        # the value at s = 1
        return sum(self.n0.values(), GaussRat(0))

    def __eq__(self, other):
        """Equality of the canonical term maps; the hash is taken from the
        same map, frozen."""
        if type(other) is not Scalar:
            return NotImplemented
        return self.n0 == other.n0

    def __hash__(self):
        return hash(_freeze(self.n0))

    def __str__(self):
        return " + ".join(f"{c}*s^{k}" for k, c in sorted(self.n0.items())) or "0"

    def __repr__(self):
        return f"<Scalar {self}>"


def _s_power(e):
    # s^e for an int e, canonical as built
    return Scalar._of({e: _GAUSS_ONE})


def _freeze(p):
    return tuple(sorted((k, v.a, v.b, v.d) for k, v in p.items()))


def _unit_product(v, w):
    # v*w when one factor is a unit monomial c*s^k, else None.  A unit
    # times a canonical Scalar is canonical.  Of two units, a factor 1 is
    # taken as the unit, so the other comes back.
    if len(v.n0) == 1 and (len(w.n0) != 1 or v.n0 == _ONE.n0):
        v, w = w, v
    elif len(w.n0) != 1:
        return None
    (k, c), = w.n0.items()  # w is now the unit
    if c.is_one():
        if not k:
            return v
        return Scalar._of({e + k: a for e, a in v.n0.items()})
    return Scalar._of({e + k: a * c for e, a in v.n0.items()})


_ZERO = Scalar({})
_ONE = Scalar({0: GaussRat(1)})
_MINUS_ONE = Scalar({0: GaussRat(-1)})
# t^2 for the scaling t = sqrt(q^(1/2) + q^(-1/2)) of the SO*(2n) basis and
# the quotient embeddings, which need t only through t^2 and parity
_T_SQUARED = Scalar({-1: _GAUSS_ONE, 1: _GAUSS_ONE})

