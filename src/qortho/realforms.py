"""Automorphism matrices, star-structure checks, and real-form labels.

The involutive Hopf automorphisms T -> D T D^-1 come in three families:
the canonical D (a permutation for even N, a middle-sign flip for odd N),
the real diagonal family D' (entries +-1, symmetric under the prime map,
middle entries forced to +1), and for even N the imaginary family
D'' = i diag(eps) with eps antisymmetric under the prime map.  Composing
them with the base conjugations (star for q real, cross for |q| = 1)
produces every real form; the classical-limit signature of the invariant
metric, or the SO* criterion, labels each one.

These, C, the composed G and K, and the pair swaps have one nonzero per
row and per column: `_Monomial` is the one form in which this module
holds and decides them, and every witness comes from it.
"""

import itertools

from .errors import (
    BadFamily, BadN, DimMismatch, NoPlaneConjugation, NotInvolution,
    Unclassifiable,
)
from .linalg import (
    SqMat, antilinear_fixed_basis, bar_mat, classical_mat, signature,
)
from .rmatrix import GroupShape
from .scalars import (
    _GAUSS_ONE as _ONE, _ONE_POLY, _T_SQUARED, ConjRegime, GaussRat, Scalar,
)

STAR = "star"
CROSS = "cross"

# i^k for k = 0..3, one object each (the 1 is that of every s^k, so of
# every entry of C).  Their products and conjugates are looked up by
# identity: the family members, C and their compositions keep to these
# objects, so checking them takes no GaussRat arithmetic.
_UNITS = (_ONE, GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1))
_, _I, _MINUS_ONE, _MINUS_I = _UNITS
_UNIT_TIMES = {(id(x), id(y)): _UNITS[(j + k) % 4]
               for j, x in enumerate(_UNITS) for k, y in enumerate(_UNITS)}
_UNIT_CONJ = {id(x): _UNITS[-k % 4] for k, x in enumerate(_UNITS)}


def _times(x, y):
    return _UNIT_TIMES.get((id(x), id(y))) or x * y


def _weight(c, e):
    # the Scalar c s^e, canonical as built for a nonzero GaussRat c
    return Scalar._of({e: c}, _ONE_POLY)


class _Monomial:
    """An N x N matrix with one nonzero per row and per column: row r holds
    c[r] s^e[r] in column perm[r] (0-based), c[r] a nonzero GaussRat.  On
    this form products, transposes, bar and equality take O(N) steps."""

    __slots__ = ("perm", "c", "e")
    dim = property(lambda self: len(self.perm))

    def __init__(self, perm, c, e):
        self.perm, self.c, self.e = tuple(perm), tuple(c), tuple(e)

    @staticmethod
    def identity(N):
        return _Monomial(range(N), (_ONE,) * N, (0,) * N)

    def __mul__(self, other):
        # (XY)[r, pY(pX r)] = X[r, pX r] Y[pX r, pY(pX r)]
        pr, c, e = other.perm, other.c, other.e
        return _Monomial([pr[j] for j in self.perm],
                         [_times(x, c[j]) for x, j in zip(self.c, self.perm)],
                         [x + e[j] for x, j in zip(self.e, self.perm)])

    def transpose(self):
        perm, c, e = list(self.perm), list(self.c), list(self.e)
        for r, j in enumerate(self.perm):
            perm[j], c[j], e[j] = r, self.c[r], self.e[r]
        return _Monomial(perm, c, e)

    def __neg__(self):
        return _Monomial(self.perm, [_times(_MINUS_ONE, x) for x in self.c],
                         self.e)

    def bar(self, regime):
        # conjugates each c; the unit-modulus regime also sends s to s^-1
        unit = regime is ConjRegime.UNIT_MODULUS_Q
        return _Monomial(self.perm,
                         [_UNIT_CONJ.get(id(x)) or x.conj() for x in self.c],
                         [-x for x in self.e] if unit else self.e)

    def sqmat(self):
        return SqMat._of(len(self.perm), {
            (r + 1, j + 1): _weight(c, e)
            for r, (j, c, e) in enumerate(zip(self.perm, self.c, self.e))})

    def __eq__(self, other):
        return (self.perm, self.c, self.e) == (other.perm, other.c, other.e)


def _parse(mat, items=None):
    """(mat as a _Monomial, None), or (None, why not) naming the first
    offending entry in (row, col) order, which only a failure sorts for."""
    N = mat.dim
    perm, c, e, used = [None] * N, [None] * N, [None] * N, [False] * N
    for (r, j), v in mat.entries.items() if items is None else items:
        if len(v.d) != 1 or len(v.n0) != 1:
            why = f"= {v} is not c*s^e"  # a one-term d is 1 in canonical form
        elif perm[r - 1] is not None or used[j - 1]:
            why = "is a second nonzero in its row or column"
        else:
            (e[r - 1], c[r - 1]), = v.n0.items()
            perm[r - 1], used[j - 1] = j - 1, True
            continue
        if items is None:
            return _parse(mat, sorted(mat.entries.items()))
        return None, f"entry ({r},{j}) {why}"
    if None in perm:
        return None, f"row {perm.index(None) + 1} is zero"
    return _Monomial(perm, c, e), None


def _monomial(mat):
    """mat as a _Monomial, or None when it is not of that form."""
    return _parse(mat)[0]


def _as_monomial(mat, N):
    # mat as a _Monomial, or TypeError naming its first offending entry
    if mat.dim != N:
        raise DimMismatch(f"matrix of dim {mat.dim} for N={N}")
    mono, why = (mat, None) if isinstance(mat, _Monomial) else _parse(mat)
    if mono is None:
        raise TypeError(f"not a monomial matrix: {why}")
    return mono


def _mismatch(r, c, lhs, rhs):
    return {"row": r, "col": c, "lhs": str(lhs), "rhs": str(rhs)}


def _diff(X, Y):
    """The first entry, in (row, col) order, where the monomials X and Y
    differ, as a witness (an absent entry reads "0"), or None."""
    for r, (jx, jy) in enumerate(zip(X.perm, Y.perm)):
        if jx != jy or X.c[r] != Y.c[r] or X.e[r] != Y.e[r]:
            j, zero = min(jx, jy), Scalar.zero()
            return _mismatch(r + 1, j + 1,
                             _weight(X.c[r], X.e[r]) if jx == j else zero,
                             _weight(Y.c[r], Y.e[r]) if jy == j else zero)


def _relabels_R(A, shape):
    """The entries (row, col, lhs, rhs) where R (A (x) A) and (A (x) A) R
    differ, found by relabeling R's entries with no matrix product.

    With A[a, pi a] = w_a, P = A (x) A has P[p, pi p] = w_p for
    pi(a, b) = (pi a, pi b) and w_(a,b) = w_a w_b, so (R P)[r, pi c] =
    R[r, c] w_c and (P R)[r, pi c] = w_r R[pi r, pi c].  The first pass
    takes the nonzero R[r, c].  The second takes the nonzero R[pi r, pi c]
    with R[r, c] = 0, and runs only if the first yields: else the injective
    map (r, c) -> (pi r, pi c) sends R's finite support onto itself.  A
    ratio w_c / w_r is multiplied on `Scalar`'s unit path, and not at all
    where both are the same unit, which is one object (see `_UNITS`)."""
    N, entries = shape.N, shape.R.entries
    # w_a w_b from a product table over A's distinct weights
    index = {x: i for i, x in enumerate(dict.fromkeys(A.c))}
    table = [[_times(x, y) for y in index] for x in index]
    cols = [index[x] for x in A.c]
    # 1-based pair index (a, b) -> (pi(a, b), c and e of w_(a, b))
    pairs = [(pa * N + pb + 1, row[j], ea + eb)
             for pa, row, ea in zip(A.perm, [table[i] for i in cols], A.e)
             for pb, j, eb in zip(A.perm, cols, A.e)]
    found = False
    for (r, c), v in entries.items():
        pr, wr, er = pairs[r - 1]
        pc, wc, ec = pairs[c - 1]
        w = entries.get((pr, pc))
        if w is not None:
            x = v if wc is wr and ec == er else v * _weight(wc / wr, ec - er)
            if w is x or w == x:
                continue
        found = True
        yield (r, pc, v * _weight(wc, ec),
               _weight(wr, er) * (Scalar.zero() if w is None else w))
    if not found:
        return
    back = {image: p for p, (image, _, _) in enumerate(pairs, 1)}
    for (pr, pc), w in entries.items():
        r = back[pr]
        if (r, back[pc]) not in entries:
            yield r, pc, Scalar.zero(), _weight(*pairs[r - 1][1:]) * w


def _r_commutation_witness(A, shape):
    # the least entry where R (A (x) A) and (A (x) A) R differ, or None;
    # A1 A2 = A2 A1 = A (x) A, so this decides R A1 A2 = A2 A1 R
    least = min(_relabels_R(A, shape), default=None)
    return least and _mismatch(*least)


class AutoMatrix:
    """A D-type matrix with its family tag and square sign, held only as
    `mono`: a SqMat given is parsed once (TypeError if not monomial)."""

    __slots__ = ("family", "N", "eps", "mono", "square_sign")
    mat = property(lambda self: self.mono.sqmat())  # derived on request

    def __init__(self, family, N, eps, mat, square_sign):
        self.family, self.N, self.eps = family, N, eps
        self.mono, self.square_sign = _as_monomial(mat, N), square_sign

    def tag(self):
        if self.family == "canonical":
            return "canonical"
        signs = "".join("+" if e > 0 else "-" for e in self.eps)
        return f"{self.family}:{signs}"

    def __eq__(self, other):
        if not isinstance(other, AutoMatrix):
            return NotImplemented
        return (self.family, self.N, self.eps, self.mono) == \
               (other.family, other.N, other.eps, other.mono)

    def __repr__(self):
        return f"<AutoMatrix {self.tag()} N={self.N}>"


def canonical_D(N):
    """Even N: permutation exchanging n and n+1; odd N: diagonal with a
    single -1 at the middle index.  Squares to +1."""
    shape = GroupShape(N)
    perm, c = list(range(N)), [_ONE] * N
    if shape.odd:
        c[shape.n2 - 1] = _MINUS_ONE
    else:
        perm[shape.n - 1], perm[shape.n] = shape.n, shape.n - 1
    return AutoMatrix("canonical", N, None, _Monomial(perm, c, (0,) * N), +1)


# family -> (mirror sign m, (u, -u)): the member is u diag(eps) with
# eps_j' = m eps_j, and it squares to m
_FAMILIES = {"dprime": (1, (_ONE, _MINUS_ONE)),
             "dsecond": (-1, (_I, _MINUS_I))}


def _family(shape, family):
    if family not in _FAMILIES:
        raise BadFamily(f"unknown family {family!r}")
    mirror, weights = _FAMILIES[family]
    if shape.odd and mirror < 0:
        raise BadFamily(f"{family} exists only for even N")
    return mirror, weights


def _member(N, family, eps):
    shape = GroupShape(N)
    mirror, (plus, minus) = _family(shape, family)
    if len(eps) != N or any(e not in (1, -1) for e in eps):
        raise BadFamily(f"eps must be a length-{N} sign vector")
    for j in range(1, N + 1):
        if eps[shape.prime(j) - 1] != mirror * eps[j - 1]:
            sign = "-" if mirror < 0 else ""
            raise BadFamily(f"{family} requires eps_j' = {sign}eps_j (j={j})")
    # the middle entry for odd N, entry n for even N (n+1 then mirrors it)
    mid = shape.n2 or shape.n
    if eps[mid - 1] != 1:
        raise BadFamily(f"{family} requires eps_{mid} = +1")
    mono = _Monomial(range(N), [plus if e == 1 else minus for e in eps],
                     (0,) * N)
    return AutoMatrix(family, N, tuple(eps), mono, mirror)


def dsecond_canonical(N):
    """D''_1 = i diag(1, ..., 1, -1, ..., -1)."""
    n = GroupShape(N).n
    return _member(N, "dsecond", (1,) * n + (-1,) * n)


def enumerate_autos(N, family):
    """Full family in lexicographic sign order (+ before -)."""
    if family == "canonical":
        return [canonical_D(N)]
    shape = GroupShape(N)
    mirror, _ = _family(shape, family)
    middle = (1,) if shape.odd else (1, mirror)
    free = itertools.product((1, -1), repeat=(N - len(middle)) // 2)
    return [_member(N, family, signs + middle + tuple(mirror * e for e in signs[::-1]))
            for signs in free]


def auto_from_signs(N, family, signs):
    """Family member from a full-length +- sign string."""
    if set(signs) - {"+", "-"}:
        raise BadFamily(f"signs must be + or -, got {signs!r}")
    return _member(N, family, tuple(1 if ch == "+" else -1 for ch in signs))


class ConjugationSpec:
    """Base conjugation, ordered automorphism list, deformation regime."""

    __slots__ = ("base", "autos", "regime")

    def __init__(self, base, autos, regime):
        if base not in (STAR, CROSS):
            raise ValueError(f"base must be star or cross, got {base!r}")
        expected = ConjRegime.REAL_Q if base == STAR else ConjRegime.UNIT_MODULUS_Q
        if regime is not expected:
            raise ValueError(f"{base} requires regime {expected.value}")
        self.base = base
        self.autos = list(autos)
        self.regime = regime

    def _composed(self, N):
        G = _Monomial.identity(N)
        for a in self.autos:
            if a.N != N:
                raise BadN(f"automorphism built for N={a.N}, spec needs {N}")
            G = G * a.mono
        return G

    def to_json(self):
        return {"base": self.base,
                "autos": [a.tag() for a in self.autos],
                "regime": self.regime.value}

    def __repr__(self):
        autos = ",".join(a.tag() for a in self.autos) or "none"
        return f"<ConjugationSpec {self.base};{autos};{self.regime.value}>"


class RealFormLabel:

    __slots__ = ("kind", "l", "m", "regime")

    def __init__(self, kind, l, m, regime):
        self.kind = kind
        self.l = l
        self.m = m
        self.regime = regime

    @staticmethod
    def so(p, m, regime):
        # SO(l, m) and SO(m, l) are the same group; print larger count first
        return RealFormLabel("so", max(p, m), min(p, m), regime)

    @staticmethod
    def sostar(N, regime):
        return RealFormLabel("sostar", N, None, regime)

    @property
    def signature(self):
        return (self.l, self.m) if self.kind == "so" else None

    def to_json(self):
        sig = self.signature
        return {"label": str(self), "signature": list(sig) if sig else None}

    def __eq__(self, other):
        if not isinstance(other, RealFormLabel):
            return NotImplemented
        return (self.kind, self.l, self.m, self.regime) == \
               (other.kind, other.l, other.m, other.regime)

    def __str__(self):
        if self.kind == "so":
            return f"SO({self.l},{self.m})"
        return f"SO*({self.l})"

    def __repr__(self):
        return f"<RealFormLabel {self}>"


def _failed(condition, detail):
    return False, {"condition": condition, "detail": detail}


def _monomial_C(shape):
    # C is monomial for every N; parsed once per shape
    return shape.once("monomial_C", lambda: _monomial(shape.C))


def _classical_C(shape):
    # C at q = 1, where each c s^e becomes c; kept once per shape
    C = _monomial_C(shape)
    return shape.once("C_at_1", lambda: _Monomial(C.perm, C.c, [0] * shape.N))


def check_auto_conditions(mat, shape):
    """Verify D^t C D = C = D C D^t, R D1 D2 = D2 D1 R, and D^2 = +-1,
    with the R and C of shape.

    Returns (True, None), or (False, witness) for the first condition that
    fails: "DCD", "RDD" or "square", with its first offending entry in
    (row, col) order.  D (a SqMat or a member's `mono`) is decided as a
    monomial in O(N) steps and one relabeling of R, or raises TypeError."""
    D = _as_monomial(mat, shape.N)
    C, Dt = _monomial_C(shape), D.transpose()
    for X in (Dt * C * D, D * C * Dt):
        if X != C:
            return _failed("DCD", _diff(X, C))
    detail = _r_commutation_witness(D, shape)
    if detail is not None:
        return _failed("RDD", detail)
    sq, I = D * D, _Monomial.identity(shape.N)
    if sq != I and sq != -I:
        return _failed("square", _diff(sq, I))
    return True, None


def check_reality(mat, base, shape):
    """Reality condition matching the base conjugation: cross needs
    bar(D) = D with D^2 = 1 or bar(D) = -D with D^2 = -1; star needs
    bar(D) = C^t D C^t.  D as in `check_auto_conditions`."""
    D = _as_monomial(mat, shape.N)
    barD = D.bar(ConjRegime.REAL_Q)
    if base == CROSS:
        sq, I = D * D, _Monomial.identity(shape.N)
        return (barD == D and sq == I) or (barD == -D and sq == -I)
    if base == STAR:
        Ct = _monomial_C(shape).transpose()
        return barD == Ct * D * Ct
    raise ValueError(f"base must be star or cross, got {base!r}")


def plane_conjugation_matrix(spec, shape):
    """K with x* = K x on the quantum plane: C^t G for star, G for cross;
    exists only when the composed automorphism G squares to +1."""
    G = spec._composed(shape.N)
    if G * G != _Monomial.identity(shape.N):
        raise NoPlaneConjugation("composed automorphism does not square to +1")
    return _conjugation_of(spec, G, shape).sqmat()


def _conjugation_of(spec, G, shape):
    # K of `plane_conjugation_matrix` for spec's composed G, with G^2 = +1
    return _monomial_C(shape).transpose() * G if spec.base == STAR else G


def _match_up_to_unit(X, Y):
    """Whether X = lam Y for monomials X, Y and a unit lam in {+-1, +-i}."""
    if X.perm != Y.perm or X.e != Y.e:
        return False
    lam = X.c[0] / Y.c[0]
    return (lam.d == 1 and lam.a * lam.a + lam.b * lam.b == 1
            and all(x == lam * y for x, y in zip(X.c, Y.c)))


def _dsecond_from(G, shape):
    """Recognize G (or -G) as a dsecond family member; None otherwise."""
    eps = [{_I: 1, _MINUS_I: -1}.get(x) for x in G.c]
    diagonal = G.perm == tuple(range(shape.N)) and not any(G.e)
    if shape.odd or not diagonal or None in eps:
        return None
    try:
        return _member(shape.N, "dsecond",
                       tuple(e * eps[shape.n - 1] for e in eps))
    except BadFamily:
        return None


def classify(spec, shape):
    """Real-form label of a conjugation: classical-limit signature of the
    invariant metric in a real basis, or SO*(2n) for the imaginary family.
    G, G^2, K and K bar(K) are taken in monomial form; only the fixed basis
    and the signature run on SqMats."""
    N = shape.N
    I = _Monomial.identity(N)
    G = spec._composed(N)
    G2 = G * G
    if G2 == I:
        K = _conjugation_of(spec, G, shape)
        if K * K.bar(spec.regime) != I:
            raise NotInvolution("K bar(K) != I at generic q")
        M = antilinear_fixed_basis(classical_mat(K.sqmat()))
        # M C1 M^T is the inverse of the metric M^-T C1 M^-1 (C1 C1 = 1);
        # a real symmetric matrix and its inverse share their signature
        C1 = shape.once("C_at_1_mat", _classical_C(shape).sqmat)
        p, m = signature(M * C1 * M.transpose())
        return RealFormLabel.so(p, m, spec.regime)
    if G2 != -I:
        # neither branch applies: name each one's first differing entry
        why = "; ".join("G^2 = {} fails at ({row},{col}): {lhs} != {rhs}"
                        .format(name, **_diff(G2, target))
                        for name, target in (("I", I), ("-I", -I)))
    elif spec.base != STAR:
        why = "G^2 = -I, and the SO* branch needs base star"
    else:
        dsec = _dsecond_from(G, shape)
        if dsec is not None and check_sostar(shape, dsec):
            return RealFormLabel.sostar(N, spec.regime)
        why = "G^2 = -I, but G is no D'' member that passes the SO* checks"
    raise Unclassifiable(f"no classification branch applies to {spec!r}: "
                         f"{why}")


def build_mpp(N):
    """N'' = M''/t, with rows (1/2)(e_j + e_j') and (i/2)(e_j - e_j').

    The change of basis M'' = t N'' normalizes the metric at q = 1, with
    t = sqrt(q^(1/2) + q^(-1/2)).  The checks on M'' are bilinear in it,
    so they need t only as t^2 = s + s^-1 (see `check_sostar_basis`)."""
    shape = GroupShape(N)
    if shape.odd:
        raise BadN("M'' exists only for even N")
    n = shape.n
    half = Scalar.from_frac(2).inv()
    ihalf = Scalar.i_unit() * half
    entries = {}
    for j in range(1, n + 1):
        jp = shape.prime(j)
        entries[(j, j)] = half
        entries[(j, jp)] = half
        entries[(n + j, j)] = ihalf
        entries[(n + j, jp)] = -ihalf
    return SqMat(N, entries)


def symplectic_j(N):
    n = N // 2
    one = Scalar.one()
    entries = {}
    for j in range(1, n + 1):
        entries[(j, n + j)] = one
        entries[(n + j, j)] = -one
    return SqMat(N, entries)


def check_sostar_basis(Npp, shape):
    """The SO*(2n) checks at q = 1 that depend only on N, for the basis
    Mpp = t Npp, with Npp as `build_mpp` gives it:

    (i) Mpp turns the metric into the identity: Mpp^t Mpp = C;
    (ii) the canonical D''_1 conjugation transports to O bar = J O J^-1,
        i.e. bar(Mpp) C^t D''_1 Mpp^-1 = J up to one global unit, where
        Mpp^-1 = C Mpp^t by (i) and C C = 1; a product that is not
        monomial matches nothing.

    Both products are bilinear in Mpp, and bar fixes the real t, so each
    is t^2 = s + s^-1 times the same product in Npp: that is how they are
    formed, and t itself never occurs.
    """
    C, D1 = shape.C, dsecond_canonical(shape.N)  # BadFamily for odd N
    if classical_mat((Npp.transpose() * Npp).scale(_T_SQUARED)) != classical_mat(C):
        return False
    X = _monomial(classical_mat((bar_mat(Npp, ConjRegime.REAL_Q)
                                 * C.transpose() * D1.mat * C
                                 * Npp.transpose()).scale(_T_SQUARED)))
    return X is not None and _match_up_to_unit(
        X, _monomial(symplectic_j(shape.N)))


def check_sostar(shape, Dsec):
    """SO*(2n) structure checks at q = 1: steps (i) and (ii) of
    `check_sostar_basis` on M'', run once per shape, then (iii) the given
    D'' reduces to D''_1 through the pair-swap witness A, in monomial
    form."""
    if not shape.once("sostar_basis",
                      lambda: check_sostar_basis(build_mpp(shape.N), shape)):
        return False
    N, C1 = shape.N, _classical_C(shape)
    D, D1 = Dsec.mono, dsecond_canonical(N).mono
    # the pair swap a <-> a' for each a with eps_a = -1 in the first half
    A = _Monomial([N - 1 - a if Dsec.eps[min(a, N - 1 - a)] == -1 else a
                   for a in range(N)], (_ONE,) * N, (0,) * N)
    return (A * D == D1 * A and A.transpose() * C1 * A == C1
            and _match_up_to_unit(C1.transpose() * D * A, A.bar(
                ConjRegime.REAL_Q) * C1.transpose() * D1))


def check_equivalence_witness(A, spec1, spec2, shape):
    """Verify that the automorphism alpha(T) = A T A^-1 intertwines the two
    conjugations: G1 A = lam bar(A) G2 for cross, C^t G1 A = lam bar(A) C^t G2
    for star, with lam a unit scalar.  A itself must satisfy the automorphism
    conditions (up to an overall sign of the metric identity).

    Returns (True, None), or (False, witness) for the first condition that
    fails: "RDD", "metric" or "transport", with its first offending entry
    in (row, col) order.  An A that is not monomial raises TypeError."""
    if spec1.base != spec2.base or spec1.regime is not spec2.regime:
        raise ValueError("witness requires specs with a common base and regime")
    N = shape.N
    A = _as_monomial(A, N)
    detail = _r_commutation_witness(A, shape)
    if detail is not None:
        return _failed("RDD", detail)
    C = _monomial_C(shape)
    X = A.transpose() * C * A
    Y = A * C * A.transpose()
    if not ((X == C and Y == C) or (X == -C and Y == -C)):
        # either X and Y differ, or they agree and are not +-C
        return _failed("metric", _diff(Y, X) or _diff(X, C))
    Ct = C.transpose() if spec1.base == STAR else _Monomial.identity(N)
    lhs = Ct * spec1._composed(N) * A
    rhs = A.bar(spec1.regime) * Ct * spec2._composed(N)
    if not _match_up_to_unit(lhs, rhs):
        return _failed("transport", _diff(lhs, rhs))
    return True, None


class CountResult:

    __slots__ = ("rows", "caveat")

    def __init__(self, rows, caveat=None):
        self.rows = rows
        self.caveat = caveat

    @property
    def count(self):
        return len(self.rows)

    def __repr__(self):
        return f"<CountResult {self.count} forms>"


def count_real_forms(N, regime):
    """Inequivalent conjugations with their labels.

    q real, N = 2n+1: the 2^n star conjugations twisted by D'.
    q real, N = 2n: 2^(n-1) star/D' plus 2^(n-2) sharp-twisted classes
    (the D' pairs with fully negated free signs are identified by the
    A-witness) plus 2^(n-1) SO* classes from D''.
    |q| = 1: cross alone for odd N; cross and sharp-twisted cross for even.
    """
    shape = GroupShape(N)
    specs = []
    if regime is ConjRegime.REAL_Q:
        dprimes = enumerate_autos(N, "dprime")
        for dp in dprimes:
            specs.append(ConjugationSpec(STAR, [dp], regime))
        if not shape.odd:
            D = canonical_D(N)
            for dp in dprimes:
                if dp.eps[0] == 1:  # class representative of the negated pair
                    specs.append(ConjugationSpec(STAR, [D, dp], regime))
            for ds in enumerate_autos(N, "dsecond"):
                specs.append(ConjugationSpec(STAR, [ds], regime))
    else:
        specs.append(ConjugationSpec(CROSS, [], regime))
        if not shape.odd:
            specs.append(ConjugationSpec(CROSS, [canonical_D(N)], regime))
    rows = [dict(classify(spec, shape).to_json(), spec=spec.to_json())
            for spec in specs]
    caveat = ("N=8 admits outer triality automorphisms beyond these families; "
              "the table lists only the D-matrix classes" if N == 8 else None)
    return CountResult(rows, caveat)
