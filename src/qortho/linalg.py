"""Exact sparse matrices over the scalar ring.

`SqMat` is the one matrix representation above the scalar layer.  A
matrix is square, 1-based, and stored as a read-only sparse
(row, col) -> Scalar map holding only nonzero canonical entries; every
matrix is built by `SqMat(...)` or by the trusted `SqMat._of`, its
attributes cannot be rebound, and operations return new matrices.
Composite tensor indices are row-major: (a, b) -> (a-1)*N + b, so slot 1
is the slow index.

`row_reduce` is the one row-elimination kernel: `inverse`, `rank`,
`antilinear_fixed_basis` and the quantum-plane relations all run on it.
`signature` is a congruence reduction (rows and columns together), not a
row reduction, and keeps its own loop on the one dense copy in the
package: a list of `Fraction` rows, because the sign of a pivot needs an
ordered field and the scalar ring is not one.
"""

from fractions import Fraction
from types import MappingProxyType

from .errors import (
    Degenerate, DimMismatch, NotInvolution, NotReal, NotSymmetric, Singular,
)
from .scalars import ConjRegime, Scalar, _accumulate


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
        self._set(dim, {k: v for k, v in (entries or {}).items() if not v.is_zero()})

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
        return SqMat(dim, {(i, i): one for i in range(1, dim + 1)})

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
    """Entrywise bar conjugation."""
    return A.map_entries(lambda v: v.bar(regime))


def classical_mat(A):
    """Entrywise evaluation at s=1; entries stay Scalar constants."""
    return A.map_entries(lambda v: Scalar.from_gauss(v.classical_limit()))


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
    offsets = [before * block + after for before in range(width ** (slot - 1))
               for after in range(after_size)]
    return _spread(A, width ** arity, lambda i: i * after_size, offsets)


def _spread(A, dim, place, offsets):
    """The dim x dim matrix with A's entry (r, c) at (place(r-1) + o + 1,
    place(c-1) + o + 1) for every offset o: an embedding of A into a tensor
    space as index arithmetic, holding A's own entry objects."""
    out = {}
    for (r, c), v in A.entries.items():
        r, c = place(r - 1) + 1, place(c - 1) + 1
        for o in offsets:
            out[(r + o, c + o)] = v
    return SqMat._of(dim, out)


def first_diff(X, Y):
    """First entry, in (row, col) order, where X and Y differ, as
    (row, col, X entry, Y entry); None if X and Y agree everywhere."""
    for r, c in sorted(X.entries.keys() | Y.entries.keys()):
        xv, yv = X.get(r, c), Y.get(r, c)
        if xv != yv:
            return r, c, xv, yv
    return None


def row_reduce(rows):
    """Sparse Gauss-Jordan elimination: the one row-reduction kernel.

    `rows` are {col: value} dicts of Scalars, taken in order.  Each row is
    reduced against the basis so far and, if anything is left, pivots on
    its lowest nonzero column and is eliminated from the earlier basis
    rows.  Returns the reduced row echelon basis as a list of
    (pivot, row, index) in the order the pivots were opened: row has a 1 at
    pivot and zeros at every other pivot, and index is the position in
    `rows` of the input row that opened the pivot.
    """
    basis = []
    for index, row in enumerate(rows):
        vec = {k: v for k, v in row.items() if not v.is_zero()}
        for piv, brow, _ in basis:
            f = vec.get(piv)
            if f is not None:
                _subtract_multiple(vec, f, brow)
        if not vec:
            continue
        piv = min(vec)
        inv = vec[piv].inv()
        vec = {k: inv * v for k, v in vec.items()}
        for _, brow, _ in basis:
            f = brow.get(piv)
            if f is not None:
                _subtract_multiple(brow, f, vec)
        basis.append((piv, vec, index))
    return basis


def _subtract_multiple(vec, f, row):
    # vec -= f * row in place, dropping entries that cancel
    f = -f
    for k, v in row.items():
        _accumulate(vec, k, f * v)


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
    if g.im != 0:
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
    half = Scalar.from_frac(Fraction(1, 2))
    candidates = (_rows((I + K).scale(half))
                  + _rows((I - K).scale(Scalar.i_unit() * half)))
    basis = row_reduce(candidates)
    return SqMat._of(n, {(r + 1, c + 1): v for r, (_, _, index) in enumerate(basis)
                         for c, v in candidates[index].items()})
