"""Exact sparse matrices over the scalar ring.

`SqMat` is the one matrix representation above the scalar layer.  A
matrix is square, 1-based, and stored as a read-only sparse
(row, col) -> Scalar map holding only nonzero canonical entries; every
matrix is built by `SqMat(...)` or by the trusted `SqMat._of`, its
attributes cannot be rebound, and operations return new matrices.
Composite tensor indices are row-major: (a, b) -> (a-1)*N + b, so slot 1
is the slow index.

`row_reduce` is the one row-elimination kernel: `inverse`, `rank`,
`antilinear_fixed_basis`, P_A's reduced basis and the quantum-plane
relations all run on it.  It is fraction-free: rows stay polynomial while
it eliminates, so no step runs a gcd per entry, and each row is divided
by its pivot once, at the end.  `signature` is a congruence reduction
(rows and columns together), not a row reduction, and keeps its own loop
on the one dense copy in the package: a list of `Fraction` rows, because
the sign of a pivot needs an ordered field and the scalar ring is not
one.
"""

import math
from types import MappingProxyType

from .errors import (
    Degenerate, DimMismatch, NotInvolution, NotReal, NotSymmetric, Singular,
)
from .scalars import (
    _ONE_POLY, ConjRegime, GaussRat, Scalar, _accumulate, _lp_divexact, _lp_gcd,
    _lp_ground,
)


def pack(parts, width):
    """Composite index (a, b, ...) -> single 1-based index, row-major."""
    idx = 0
    for p in parts:
        idx = idx * width + (p - 1)
    return idx + 1


def unpack(idx, width, arity):
    idx -= 1
    parts = []
    for _ in range(arity):
        parts.append(idx % width + 1)
        idx //= width
    return tuple(reversed(parts))


class SqMat:

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries=None):
        entries = entries or {}
        if any(type(v) is not Scalar for v in entries.values()):
            raise TypeError("SqMat entries must be Scalars")
        self._set(dim, {k: v for k, v in entries.items() if not v.is_zero()})

    @staticmethod
    def _of(dim, entries):
        """Trusted constructor: `entries` is a fresh dict of nonzero Scalars
        that no caller keeps a reference to."""
        m = SqMat.__new__(SqMat)
        m._set(dim, entries)
        return m

    def _set(self, dim, entries):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def __setattr__(self, name, value):
        raise AttributeError(f"SqMat is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SqMat is immutable: cannot delete {name!r}")

    @staticmethod
    def identity(dim):
        one = Scalar.one()
        return SqMat._of(dim, {(i, i): one for i in range(1, dim + 1)})

    @staticmethod
    def diag(values):
        return SqMat(len(values), {(i + 1, i + 1): v for i, v in enumerate(values)})

    def get(self, r, c):
        return self.entries.get((r, c), Scalar.zero())

    def __eq__(self, other):
        if not isinstance(other, SqMat):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def __add__(self, other):
        if self.dim != other.dim:
            raise DimMismatch(f"{self.dim} vs {other.dim}")
        out = self.entries.copy()
        for k, v in other.entries.items():
            _accumulate(out, k, v)
        return SqMat._of(self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SqMat._of(self.dim, {k: -v for k, v in self.entries.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if self.dim != other.dim:
            raise DimMismatch(f"{self.dim} vs {other.dim}")
        # one output row at a time: gather each entry's (v, w) pairs, then
        # sum them with `Scalar.sum_of_products`, one canonicalisation per
        # entry when the factors are polynomial, as in every product the
        # subcommands take
        left, right = {}, {}
        for (r, c), v in self.entries.items():
            left.setdefault(r, []).append((c, v))
        for (r, c), w in other.entries.items():
            right.setdefault(r, []).append((c, w))
        out = {}
        for i, row in left.items():
            pairs = {}
            for k, v in row:
                for j, w in right.get(k, ()):
                    pairs.setdefault(j, []).append((v, w))
            for j, entry in pairs.items():
                x = Scalar.sum_of_products(entry)
                if not x.is_zero():
                    out[(i, j)] = x
        return SqMat._of(self.dim, out)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        if c.is_zero():
            return SqMat(self.dim)
        return SqMat._of(self.dim, {k: c * v for k, v in self.entries.items()})

    def transpose(self):
        return SqMat._of(self.dim, {(c, r): v for (r, c), v in self.entries.items()})

    def trace(self):
        t = Scalar.zero()
        for (r, c), v in self.entries.items():
            if r == c:
                t = t + v
        return t

    def is_zero(self):
        return not self.entries

    def map_entries(self, f):
        return SqMat(self.dim, {k: f(v) for k, v in self.entries.items()})

    def to_json(self):
        rows = [[r, c, str(v)] for (r, c), v in sorted(self.entries.items())]
        return {"dim": self.dim, "entries": rows}

    def __repr__(self):
        return f"<SqMat dim={self.dim} nnz={len(self.entries)}>"


def bar_mat(A, regime):
    """Entrywise bar conjugation; the bar of a nonzero canonical entry is
    a nonzero canonical entry."""
    return SqMat._of(A.dim, {k: v.bar(regime) for k, v in A.entries.items()})


def classical_mat(A):
    """Entrywise evaluation at s=1; entries stay Scalar constants, built
    canonical, and the ones whose limit is 0 are left out."""
    out = {}
    for k, v in A.entries.items():
        g = v.classical_limit()
        if not g.is_zero():
            out[k] = Scalar._of({0: g}, _ONE_POLY)
    return SqMat._of(A.dim, out)


def linear_combination(terms):
    """The sum of c X over the (c, X) pairs of `terms`, matrices of one
    dim: each entry is one `Scalar.sum_of_products` of its (c, X entry)
    pairs, so a polynomial combination forms no intermediate matrix and
    runs no gcd.  Entries that cancel are left out."""
    dim = terms[0][1].dim
    pairs = {}
    for c, X in terms:
        if X.dim != dim:
            raise DimMismatch(f"{dim} vs {X.dim}")
        for key, v in X.entries.items():
            pairs.setdefault(key, []).append((c, v))
    out = {}
    for key, entry in pairs.items():
        x = Scalar.sum_of_products(entry)
        if not x.is_zero():
            out[key] = x
    return SqMat._of(dim, out)


def kron_embed(A, slot, width, arity):
    """Embed A into the arity-fold tensor space of the given width.

    A of dim `width` acts on tensor slot `slot`; A of dim `width`**2 acts
    on the adjacent pair (slot, slot+1).  Identity on the other slots.
    The embedded entries are A's own Scalars, not copies.
    """
    if A.dim == width:
        span = 1
    elif A.dim == width ** 2:
        span = 2
    else:
        raise DimMismatch(f"dim {A.dim} does not fit width {width}")
    if slot < 1 or slot + span - 1 > arity:
        raise DimMismatch(f"slot {slot} (span {span}) outside arity {arity}")
    # 0-based composite index = (before * A.dim + i) * after_size + after,
    # with i A's index and before, after the slots left and right of it
    after_size = width ** (arity - slot - span + 1)
    block = A.dim * after_size
    offsets = [before * block + after + 1
               for before in range(width ** (slot - 1))
               for after in range(after_size)]
    out = {}
    for (r, c), v in A.entries.items():
        r, c = (r - 1) * after_size, (c - 1) * after_size
        for o in offsets:
            out[(r + o, c + o)] = v
    return SqMat._of(width ** arity, out)


def first_diff(X, Y):
    """First entry, in (row, col) order, where X and Y differ, as
    (row, col, X entry, Y entry); None if X and Y agree everywhere."""
    for r, c in sorted(X.entries.keys() | Y.entries.keys()):
        xv, yv = X.get(r, c), Y.get(r, c)
        if xv != yv:
            return r, c, xv, yv
    return None


def products_equal(left, right=()):
    """Whether X1...Xm = Y1...Ym for the matrices Xi of `left` and Yi of
    `right` (X1...Xm = 0 when `right` is empty): the one-identity case of
    `sums_equal`.  A nonempty `right` has m factors too."""
    return sums_equal([([left], [right] if right else [])])[0]


def sums_equal(identities):
    """For each identity (lhs, rhs) of `identities`, whether the sum of the
    products X1...Xm over the chains [X1, ..., Xm] of lhs equals that over
    the chains of rhs (an empty side is 0), decided exactly over the
    integers by the substitution s -> 2^k, in one pass: one
    `_kronecker_images` call encodes every distinct entry of every factor
    once, with one k for all the identities.  Every chain of one identity
    has the same number m of factors (ValueError otherwise).  Every entry
    of every factor must lie in Z[s, s^-1]; `_kronecker_images` raises
    TypeError for any other.

    Let the l1 norm of a row be the sum of the absolute values of its
    entries' coefficients, and rho(X) the largest over the rows of X.  Row
    i of XY is a combination of the rows of Y with the entries of row i of
    X as weights, and the l1 norm of a product of Laurent polynomials is at
    most the product of their norms, so the norm of row i of XY is at most
    that of row i of X times rho(Y).  Every coefficient of every entry of
    a chain's product is therefore at most rho(X1)...rho(Xm) in absolute
    value, and by the triangle inequality every coefficient of a side's
    sum at most that side's bound, the sum over its chains of
    rho(X1)...rho(Xm).  Let beta be the largest bound of any side of any
    identity: every coefficient of the difference of two sides is at most
    2 beta.  With 2^k > 8 beta that is below 2^k / 4, and an integer has
    at most one base-2^k expansion with digits in (-2^k / 2, 2^k / 2), so
    an entry of the difference vanishes exactly when its image does: each
    verdict is exact both ways, and `_decode` reads an entry back from its
    image.  A k above what one identity alone needs only widens its
    images.

    Entries are encoded shifted by the lowest s-exponent lo over all
    factors and in the variable u = s^g, where g is the gcd of every
    offset e - lo: an entry sum c_e s^e is s^lo P(u) with
    P(u) = sum c_e u^((e - lo) / g) a polynomial, and its image is P(2^k).
    A row of the shifted product s^(-m lo) X1...Xm is a product of such
    polynomials in u, so the argument above holds with u in place of s:
    the coefficients of P are those of the entry, the norms are unchanged,
    and an integer polynomial in u with coefficients below 2^k / 4
    vanishes exactly when its value at u = 2^k does.  Every chain of one
    identity carries the same shift s^(m lo), so its sides agree exactly
    when their shifted sums do.  For every even N, g = 2 for R and the
    projectors (all their exponents are even), which halves the images'
    width.
    """
    for lhs, rhs in identities:
        lengths = {len(chain) for chain in (*lhs, *rhs)}
        if len(lengths) > 1:
            raise ValueError(f"chains of {sorted(lengths)} factors in one "
                             "identity")
    sides = [side for identity in identities for side in identity]
    images = _kronecker_images(*sides)[3]
    rows = {}
    for side in sides:
        for chain in side:
            for X in chain:
                if id(X) not in rows:
                    rows[id(X)] = _int_rows(X, images)
    return [_sides_equal([[rows[id(X)] for X in chain] for chain in lhs],
                         [[rows[id(X)] for X in chain] for chain in rhs])
            for lhs, rhs in identities]


def _sides_equal(lhs, rhs):
    # whether two sides of integer-row chains have equal sums, one row of
    # each side at a time, in row order, so no full product is held
    rows = set()
    for first, *_ in (*lhs, *rhs):
        rows.update(first)
    return all(_side_row(lhs, i) == _side_row(rhs, i) for i in sorted(rows))


def _side_row(side, i):
    # row i of the sum of the side's chain products, zero entries dropped
    rows = []
    for first, *rest in side:
        row = first.get(i, {})
        for X in rest:
            row = _row_times(row, X)
        rows.append(row)
    if len(rows) == 1:
        return rows[0]
    total = {}
    for row in rows:
        for j, x in row.items():
            total[j] = total.get(j, 0) + x
    return {j: x for j, x in total.items() if x}


def _kronecker_images(*sides):
    """(k, lo, g, images) for the sides of `sums_equal`, each a list of
    chains of factors: the smallest k with 2^k > 8 beta (see `sums_equal`),
    the lowest s-exponent lo of any factor, the gcd g of every e - lo (1
    when all exponents are lo) and, under id(v) for each entry v of a
    factor, the integer sum c_e 2^(k (e - lo) / g).  Each distinct entry
    object is encoded once.  Raises TypeError if an entry is outside
    Z[s, s^-1]."""
    polys, rho = {}, {}
    for side in sides:
        for chain in side:
            for X in chain:
                if id(X) not in rho:
                    rho[id(X)] = _row_norm(X, polys)
    beta = max((sum(math.prod(rho[id(X)] for X in chain) for chain in side)
                for side in sides), default=0)
    k = (8 * beta).bit_length()
    lo = min((e for poly, _ in polys.values() for e in poly), default=0)
    g = math.gcd(*(e - lo for poly, _ in polys.values() for e in poly)) or 1
    return k, lo, g, {
        i: sum(c << (k * ((e - lo) // g)) for e, c in poly.items())
        for i, (poly, _) in polys.items()}


def _row_norm(X, polys):
    # rho(X), adding each new entry's (integer poly, l1 norm) to polys
    norms = {}
    for (r, _), v in X.entries.items():
        found = polys.get(id(v))
        if found is None:
            # a canonical denominator with one term is 1
            if len(v.d) != 1:
                raise TypeError(f"entry {v} is outside Z[s, s^-1]")
            poly, norm = {}, 0
            for e, x in v.n0.items():
                if x.b or x.d != 1:
                    raise TypeError(f"entry {v} is outside Z[s, s^-1]")
                poly[e] = x.a
                norm += abs(x.a)
            found = polys[id(v)] = poly, norm
        norms[r] = norms.get(r, 0) + found[1]
    return max(norms.values(), default=0)


def _decode(n, k, shift, g):
    """The Laurent polynomial, as a Scalar, whose image in u = s^g at
    u = 2^k is n, with s^shift factored out (see `products_equal`): the
    balanced base-2^k digit of u^j is the coefficient of s^(shift + g j).
    A product of m factors with images from `_kronecker_images` has
    shift m lo."""
    half, mask, terms = 1 << (k - 1), (1 << k) - 1, {}
    # n has at most bit_length // k + 2 balanced digits; past them, c = 0
    for _ in range(abs(n).bit_length() // k + 2):
        c = ((n + half) & mask) - half
        if c:
            terms[shift] = GaussRat(c)
        n = (n - c) >> k
        shift += g
    return Scalar(terms)


def _int_rows(M, images):
    # M's entries as {row: {col: images[id(entry)]}}
    rows = {}
    for (r, c), v in M.entries.items():
        rows.setdefault(r, {})[c] = images[id(v)]
    return rows


def _row_times(row, M):
    # a {col: int} row times a {row: {col: int}} matrix, zero entries dropped
    acc = {}
    for k, v in row.items():
        Mk = M.get(k)
        if Mk:
            for j, w in Mk.items():
                if j in acc:
                    acc[j] += v * w
                else:
                    acc[j] = v * w
    return {j: x for j, x in acc.items() if x}


def row_reduce(rows):
    """Sparse fraction-free Gauss-Jordan elimination: the one row-reduction
    kernel.

    `rows` are {col: value} dicts of Scalars, taken in order.  Each row is
    reduced against the basis so far and, if anything is left, pivots on
    its lowest nonzero column and is eliminated from the earlier basis
    rows.  Returns the reduced row echelon basis as a list of
    (pivot, row, index) in the order the pivots were opened: row has a 1 at
    pivot and zeros at every other pivot, and index is the position in
    `rows` of the input row that opened the pivot.

    While it runs, each row is held as a polynomial multiple of its reduced
    row, so no step divides: a row with a denominator is first multiplied
    by its denominators, and eliminating row b (pivot value p) from v is
    v <- p v - f b with f = v's entry at b's pivot, products of polynomials
    that `Scalar.sum_of_products` sums with no gcd.  Each residual is then
    a nonzero multiple of the residual of an elimination over the fraction
    field, so the same rows open the same pivots.  A row whose pivot is a
    unit c*s^k is divided by it at once; any other row is divided by the
    gcd of its numerators, which keeps its degrees down.  Every
    row is divided by its pivot once, at the end; the reduced basis is
    unique for its pivots, so it is the one a Gauss-Jordan elimination
    gives.
    """
    basis = []
    for index, row in enumerate(rows):
        vec = _polynomial_row(row)
        for piv, brow, _ in basis:
            if not vec:
                break
            f = vec.get(piv)
            if f is not None:
                vec = _eliminate(vec, brow[piv], f, brow)
        if not vec:
            continue
        piv = min(vec)
        vec = _settle(vec, piv)
        p = vec[piv]
        for b in basis:
            f = b[1].get(piv)
            if f is not None:
                b[1] = _settle(_eliminate(b[1], p, f, vec), b[0])
        basis.append([piv, vec, index])
    return [(piv, _over_pivot(vec, piv), index) for piv, vec, index in basis]


def _polynomial_row(row):
    # the nonzero entries of row, times the product of their distinct
    # non-monomial denominators: every entry comes out polynomial
    vec = {k: v for k, v in row.items() if not v.is_zero()}
    dens = {}
    for v in vec.values():
        if len(v.d) > 1:
            dens.setdefault(frozenset(v.d.items()), v.d)
    if not dens:
        return vec
    out = {}
    for k, v in vec.items():
        x = Scalar(v.n0)
        own = frozenset(v.d.items())
        for key, d in dens.items():
            if key != own:
                x = x * Scalar(d)
        out[k] = x
    return out


def _eliminate(vec, p, f, row):
    # p * vec - f * row as a new dict, dropping entries that cancel; a
    # column in both is one polynomial sum of two products
    f = -f
    out = {}
    for k, v in vec.items():
        w = row.get(k)
        x = p * v if w is None else Scalar.sum_of_products([(p, v), (f, w)])
        if not x.is_zero():
            out[k] = x
    for k, w in row.items():
        if k not in vec:
            out[k] = f * w
    return out


def _is_unit(x):
    # c*s^k with c != 0: a canonical Scalar with one term
    return len(x.n0) == 1 and len(x.d) == 1


def _settle(vec, piv):
    """vec over a nonzero scalar, with entries that stay polynomial: the
    row is divided by its pivot if that is a unit c*s^k, else by the gcd
    of its numerators (the pivot's first, so a constant gcd is found
    early), and by its pivot if that left a unit there."""
    if not _is_unit(vec[piv]):
        g = _lp_ground(vec[piv].n0)
        for x in (v.n0 for k, v in vec.items() if k != piv):
            if len(g) == 1:
                return vec
            g = _lp_gcd(g, x)
        if len(g) == 1:
            return vec
        vec = {k: Scalar._of(_lp_divexact(v.n0, g), v.d)
               for k, v in vec.items()}
        if not _is_unit(vec[piv]):
            return vec
    return _over_pivot(vec, piv)


def _over_pivot(vec, piv):
    # vec divided by its entry at piv, which becomes 1
    if vec[piv] == Scalar.one():
        return vec
    inv = vec[piv].inv()
    return {k: inv * v for k, v in vec.items()}


def _rows(A):
    """Rows of A as 0-based {col: value} dicts, in row order."""
    rows = [{} for _ in range(A.dim)]
    for (r, c), v in A.entries.items():
        rows[r - 1][c - 1] = v
    return rows


def inverse(A):
    """Exact inverse: row-reduce [A | I] over the fraction field."""
    n = A.dim
    rows = _rows(A)
    for r, row in enumerate(rows):
        row[n + r] = Scalar.one()
    basis = [(piv, row) for piv, row, _ in row_reduce(rows) if piv < n]
    if len(basis) < n:
        col = min(set(range(n)) - {piv for piv, _ in basis})
        raise Singular(f"no pivot in column {col + 1}")
    return SqMat(n, {(piv + 1, c - n + 1): v for piv, row in basis
                     for c, v in row.items() if c >= n})


def rank(A):
    """Rank over the fraction field of the scalar ring."""
    return len(row_reduce(_rows(A)))


def _rational_entry(v):
    g = v.as_gauss()
    if g is None:
        raise NotReal(f"entry {v} is not a constant")
    if g.b:
        raise NotReal(f"entry {v} has an imaginary part")
    return g.re


def signature(S):
    """Signature (p, m) of a symmetric rational matrix by congruence.

    Works on a dense copy with `Fraction` entries, the one matrix here that
    is not a SqMat: the sign of a pivot needs an ordered field.

    Pivot rule: first nonzero diagonal entry; if every remaining diagonal
    entry is zero, fold the first nonzero off-diagonal pair (i, j) by
    adding row/column j to row/column i, which makes S_ii = 2 S_ij.
    """
    from fractions import Fraction  # off the start-up path
    n = S.dim
    for (r, c), v in S.entries.items():
        if S.get(c, r) != v:
            raise NotSymmetric(f"entry ({r},{c})")
    M = [[_rational_entry(S.entries[(r, c)]) if (r, c) in S.entries else Fraction(0)
          for c in range(1, n + 1)] for r in range(1, n + 1)]
    active = list(range(n))
    p = m = 0
    while active:
        k = next((a for a in active if M[a][a] != 0), None)
        if k is None:
            pair = next(((i, j) for i in active for j in active
                         if i < j and M[i][j] != 0), None)
            if pair is None:
                raise Degenerate(f"{len(active)} null directions")
            i, j = pair
            for a in range(n):
                M[i][a] += M[j][a]
            for a in range(n):
                M[a][i] += M[a][j]
            continue
        d = M[k][k]
        if d > 0:
            p += 1
        else:
            m += 1
        active.remove(k)
        for i in active:
            f = M[i][k] / d
            if f == 0:
                continue
            for a in range(n):
                M[i][a] -= f * M[k][a]
            for a in range(n):
                M[a][i] -= f * M[a][k]
    return (p, m)


def antilinear_fixed_basis(K):
    """Basis M of the fixed vectors of the antilinear map r -> bar(r)*K.

    K must have constant entries, and K*bar(K) = I so the map, tau, is an
    involution.  tau(e_j) is row j of K, so the candidate rows
    (e_j + tau(e_j))/2 for all j, then i*(e_j - tau(e_j))/2, are the rows of
    (I + K)/2 and of i(I - K)/2.  They are row-reduced in order and the ones
    that open a pivot are kept; every selected row satisfies
    bar(row)*K = row.  They always span, so M is invertible for every K:
    row j of (I + K)/2 minus i times row j of i(I - K)/2 is e_j.
    """
    for v in K.entries.values():
        if v.as_gauss() is None:
            raise NotReal(f"entry {v} is not a constant")
    n = K.dim
    I = SqMat.identity(n)
    diff = first_diff(K * bar_mat(K, ConjRegime.REAL_Q), I)
    if diff is not None:
        raise NotInvolution(f"K*bar(K) differs from I at ({diff[0]},{diff[1]})")
    half = Scalar.from_frac(2).inv()
    ihalf = Scalar.i_unit() * half
    candidates = (_rows(linear_combination([(half, I), (half, K)]))
                  + _rows(linear_combination([(ihalf, I), (-ihalf, K)])))
    basis = row_reduce(candidates)
    return SqMat._of(n, {(r + 1, c + 1): v for r, (_, _, index) in enumerate(basis)
                         for c, v in candidates[index].items()})
