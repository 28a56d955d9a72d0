"""Automorphism matrices, star-structure checks, and real-form labels.

The involutive Hopf automorphisms T -> D T D^-1 come in three families:
the canonical D (a permutation for even N, a middle-sign flip for odd N),
the real diagonal family D' (entries +-1, symmetric under the prime map,
middle entries forced to +1), and for even N the imaginary family
D'' = i diag(eps) with eps antisymmetric under the prime map.  Composing
them with the base conjugations (star for q real, cross for |q| = 1)
produces every real form; the classical-limit signature of the invariant
metric, or the SO* criterion, labels each one.
"""

import itertools

from .errors import (
    BadFamily, BadN, NoPlaneConjugation, NotInvolution, Unclassifiable,
)
from .linalg import (
    SqMat, antilinear_fixed_basis, bar_mat, classical_mat, first_diff,
    kron_embed, signature,
)
from .rmatrix import GroupShape
from .scalars import ConjRegime, GaussRat, Scalar

STAR = "star"
CROSS = "cross"

# i^k for k = 0..3, and k for each unit (re, im)
_I_POWERS = (GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1))
_I_EXPONENT = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _unit(k, e):
    # the Scalar i^k s^e, canonical as built
    return Scalar._of({e: _I_POWERS[k % 4]}, {}, {0: _I_POWERS[0]})


class _Monomial:
    """An N x N matrix with one nonzero per row and per column, each a unit
    monomial: row r holds i^k[r] s^e[r] in column perm[r] (0-based), k taken
    mod 4.  The families D, D' and D'' and the metric C have this form, and
    on it products, transposes, bar and equality are O(N) integer
    operations.  `_monomial` recognizes the form in a SqMat; any other
    matrix stays a SqMat."""

    __slots__ = ("perm", "k", "e")

    def __init__(self, perm, k, e):
        self.perm = tuple(perm)
        self.k = tuple(x % 4 for x in k)
        self.e = tuple(e)

    @staticmethod
    def identity(N):
        return _Monomial(range(N), (0,) * N, (0,) * N)

    def __mul__(self, other):
        # (XY)[r, pY(pX r)] = X[r, pX r] Y[pX r, pY(pX r)]
        pr, k, e = other.perm, other.k, other.e
        return _Monomial([pr[c] for c in self.perm],
                         [a + k[c] for a, c in zip(self.k, self.perm)],
                         [a + e[c] for a, c in zip(self.e, self.perm)])

    def transpose(self):
        perm, k, e = [0] * len(self.perm), list(self.k), list(self.e)
        for r, c in enumerate(self.perm):
            perm[c], k[c], e[c] = r, self.k[r], self.e[r]
        return _Monomial(perm, k, e)

    def __neg__(self):
        return _Monomial(self.perm, [a + 2 for a in self.k], self.e)

    def bar(self):
        # for real q: i -> -i, s fixed
        return _Monomial(self.perm, [-a for a in self.k], self.e)

    def __eq__(self, other):
        if not isinstance(other, _Monomial):
            return NotImplemented
        return (self.perm, self.k, self.e) == (other.perm, other.k, other.e)


def _monomial(mat):
    """mat as a _Monomial, or None when it is not of that form."""
    N = mat.dim
    if len(mat.entries) != N:
        return None
    perm, k, e = [None] * N, [0] * N, [0] * N
    for (r, c), v in mat.entries.items():
        if perm[r - 1] is not None or v.n1 or len(v.d) != 1 or len(v.n0) != 1:
            return None
        (x, g), = v.n0.items()  # v = g s^x; a one-term d is 1 in canonical form
        unit = _I_EXPONENT.get((g.a, g.b)) if g.d == 1 else None
        if unit is None:
            return None
        perm[r - 1], k[r - 1], e[r - 1] = c - 1, unit, x
    if len(set(perm)) != N:
        return None
    return _Monomial(perm, k, e)


def _relabels_R(A, shape):
    """Whether R (A (x) A) = (A (x) A) R, for a _Monomial A, decided as a
    relabeling of R's entries with no matrix product.

    Write A[a, pi a] = w_a.  Then P = A (x) A is monomial on pairs:
    P[p, pi p] = w_p with pi(a, b) = (pi a, pi b) and w_(a,b) = w_a w_b.
    Entrywise, (R P)[r, pi c] = R[r, c] w_c and (P R)[r, pi c] =
    w_r R[pi r, pi c], and pi is onto, so R P = P R exactly when
    R[pi r, pi c] = R[r, c] w_c / w_r for every r, c.  It suffices to check
    the nonzero R[r, c]: when each maps to a nonzero R[pi r, pi c], the
    injective map (r, c) -> (pi r, pi c) sends R's finite support into
    itself, hence onto itself, so it sends every zero of R to a zero, as
    the condition asks there.  Each ratio w_c / w_r is a unit monomial, so
    the multiply takes `Scalar`'s unit fast path, and none is needed where
    both exponent differences are 0."""
    N, entries = shape.N, shape.R.entries
    perm, k, e = A.perm, A.k, A.e
    # 1-based pair index (a, b) -> (pi(a, b), k and e of w_(a, b))
    pairs = [(perm[a] * N + perm[b] + 1, k[a] + k[b], e[a] + e[b])
             for a in range(N) for b in range(N)]
    for (r, c), v in entries.items():
        pr, kr, er = pairs[r - 1]
        pc, kc, ec = pairs[c - 1]
        w = entries.get((pr, pc))
        if w is None:
            return False
        dk, de = (kc - kr) % 4, ec - er
        if dk or de:
            v = v * _unit(dk, de)
        if w is not v and w != v:
            return False
    return True


class AutoMatrix:
    """A D-type matrix with its family tag and square sign."""

    __slots__ = ("family", "N", "eps", "mat", "square_sign")

    def __init__(self, family, N, eps, mat, square_sign):
        self.family = family
        self.N = N
        self.eps = eps
        self.mat = mat
        self.square_sign = square_sign

    def tag(self):
        if self.family == "canonical":
            return "canonical"
        signs = "".join("+" if e > 0 else "-" for e in self.eps)
        return f"{self.family}:{signs}"

    def __eq__(self, other):
        if not isinstance(other, AutoMatrix):
            return NotImplemented
        return (self.family, self.N, self.eps, self.mat) == \
               (other.family, other.N, other.eps, other.mat)

    def __repr__(self):
        return f"<AutoMatrix {self.tag()} N={self.N}>"


def canonical_D(N):
    """Even N: permutation exchanging n and n+1; odd N: diagonal with a
    single -1 at the middle index.  Squares to +1."""
    shape = GroupShape(N)
    one = Scalar.one()
    if shape.odd:
        entries = {(a, a): (-one if a == shape.n2 else one)
                   for a in range(1, N + 1)}
    else:
        n = shape.n
        entries = {(a, a): one for a in range(1, N + 1)
                   if a not in (n, n + 1)}
        entries[(n, n + 1)] = one
        entries[(n + 1, n)] = one
    return AutoMatrix("canonical", N, None, SqMat(N, entries), +1)


# family -> (mirror sign m, unit u): the member is u diag(eps) with
# eps_j' = m eps_j, and it squares to m
_FAMILIES = {"dprime": (1, Scalar.one()), "dsecond": (-1, Scalar.i_unit())}


def _family(shape, family):
    if family not in _FAMILIES:
        raise BadFamily(f"unknown family {family!r}")
    mirror, unit = _FAMILIES[family]
    if shape.odd and mirror < 0:
        raise BadFamily(f"{family} exists only for even N")
    return mirror, unit


def _member(N, family, eps):
    shape = GroupShape(N)
    mirror, unit = _family(shape, family)
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
    mat = SqMat.diag([unit if e == 1 else -unit for e in eps])
    return AutoMatrix(family, N, tuple(eps), mat, mirror)


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

    def composed(self, N):
        G = SqMat.identity(N)
        for a in self.autos:
            if a.N != N:
                raise BadN(f"automorphism built for N={a.N}, spec needs {N}")
            G = G * a.mat
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


def _witness(X, Y):
    diff = first_diff(X, Y)
    if diff is None:
        return None
    r, c, xv, yv = diff
    return {"row": r, "col": c, "lhs": str(xv), "rhs": str(yv)}


def _r_commutation_witness(A, shape):
    """First entry where R (A (x) A) and (A (x) A) R differ, or None.

    A1 A2 = A2 A1 = A (x) A, so this decides R A1 A2 = A2 A1 R with the
    same two matrices and one product fewer.  A monomial A that commutes
    is recognized by `_relabels_R`, with no product at all."""
    mono = _monomial(A)
    if mono is not None and _relabels_R(mono, shape):
        return None
    N, R = shape.N, shape.R
    AA = kron_embed(A, 1, N, 2) * kron_embed(A, 2, N, 2)
    return _witness(R * AA, AA * R)


def _failed(condition, detail):
    return False, {"condition": condition, "detail": detail}


def _monomial_C(shape):
    # C is monomial for every N; parsed once per shape
    return shape.once("monomial_C", lambda: _monomial(shape.C))


def _is_automorphism(D, shape):
    # the conditions of `check_auto_conditions` for a _Monomial D
    C, I = _monomial_C(shape), _Monomial.identity(shape.N)
    sq = D * D
    return (D.transpose() * C * D == C and D * C * D.transpose() == C
            and _relabels_R(D, shape) and (sq == I or sq == -I))


def check_auto_conditions(mat, shape):
    """Verify D^t C D = C = D C D^t, R D1 D2 = D2 D1 R, and D^2 = +-1,
    with the R and C of shape.

    Returns (True, None), or (False, witness) for the first condition that
    fails: "DCD", "RDD" or "square", with its first offending entry.  A
    monomial D is decided in O(N) integer operations and one relabeling of
    R; a failure, or any other D, is decided by SqMat products, which
    build the witness."""
    D = _monomial(mat)
    if D is not None and _is_automorphism(D, shape):
        return True, None
    N, C = shape.N, shape.C
    for X in (mat.transpose() * C * mat, mat * C * mat.transpose()):
        if X != C:
            return _failed("DCD", _witness(X, C))
    detail = _r_commutation_witness(mat, shape)
    if detail is not None:
        return _failed("RDD", detail)
    I = SqMat.identity(N)
    sq = mat * mat
    if sq != I and sq != -I:
        return _failed("square", _witness(sq, I))
    return True, None


def check_reality(mat, base, shape):
    """Reality condition matching the base conjugation: cross needs
    bar(D) = D with D^2 = 1 or bar(D) = -D with D^2 = -1; star needs
    bar(D) = C^t D C^t.  A monomial D is checked in its _Monomial form."""
    D = _monomial(mat)
    if D is None:
        D, C, I = mat, shape.C, SqMat.identity(shape.N)
        barD = bar_mat(mat, ConjRegime.REAL_Q)  # entries are constants
    else:
        C, I = _monomial_C(shape), _Monomial.identity(shape.N)
        barD = D.bar()
    sq = D * D
    if base == CROSS:
        return (barD == D and sq == I) or (barD == -D and sq == -I)
    if base == STAR:
        return barD == C.transpose() * D * C.transpose()
    raise ValueError(f"base must be star or cross, got {base!r}")


def plane_conjugation_matrix(spec, shape):
    """K with x* = K x on the quantum plane: C^t G for star, G for cross;
    exists only when the composed automorphism G squares to +1."""
    G = spec.composed(shape.N)
    if G * G != SqMat.identity(shape.N):
        raise NoPlaneConjugation("composed automorphism does not square to +1")
    return _conjugation_of(spec, G, shape)


def _conjugation_of(spec, G, shape):
    # K of `plane_conjugation_matrix` for spec's composed G, with G^2 = +1
    return shape.C.transpose() * G if spec.base == STAR else G


_UNITS = (Scalar.one(), -Scalar.one(), Scalar.i_unit(), -Scalar.i_unit())


def _match_up_to_unit(X, Y):
    """Unit scalar lam with X = lam * Y, or None."""
    if X.dim != Y.dim or set(X.entries) != set(Y.entries):
        return None
    if X.is_zero():
        return Scalar.one()
    key = min(X.entries)
    ratio = X.entries[key] / Y.entries[key]
    for lam in _UNITS:
        if ratio == lam:
            return lam if X == lam * Y else None
    return None


def _dsecond_from(G, shape):
    """Recognize G (or -G) as a dsecond family member; None otherwise."""
    N = shape.N
    if shape.odd or len(G.entries) != N:
        return None
    i_unit = Scalar.i_unit()
    eps = []
    for a in range(1, N + 1):
        v = G.get(a, a)
        if v == i_unit:
            eps.append(1)
        elif v == -i_unit:
            eps.append(-1)
        else:
            return None
    if eps[shape.n - 1] == -1:
        eps = [-e for e in eps]
    try:
        return _member(N, "dsecond", tuple(eps))
    except BadFamily:
        return None


def classify(spec, shape):
    """Real-form label of a conjugation: classical-limit signature of the
    invariant metric in a real basis, or SO*(2n) for the imaginary family."""
    N = shape.N
    I = SqMat.identity(N)
    G = spec.composed(N)
    G2 = G * G
    if G2 == I:
        K = _conjugation_of(spec, G, shape)
        if K * bar_mat(K, spec.regime) != I:
            raise NotInvolution("K bar(K) != I at generic q")
        K1 = classical_mat(K)
        M = antilinear_fixed_basis(K1)
        # M C1 M^T is the inverse of the metric M^-T C1 M^-1 (C1 C1 = 1);
        # a real symmetric matrix and its inverse share their signature
        p, m = signature(M * classical_mat(shape.C) * M.transpose())
        return RealFormLabel.so(p, m, spec.regime)
    if G2 != -I:
        # neither branch applies: name each one's first differing entry
        fails = []
        for name, target in (("I", I), ("-I", -I)):
            r, c, x, y = first_diff(G2, target)
            fails.append(f"G^2 = {name} fails at ({r},{c}): {x} != {y}")
        why = "; ".join(fails)
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
    """Change of basis M'' with rows (t/2)(e_j + e_j') and
    (t/2) i (e_j - e_j'), normalizing the metric at q = 1."""
    shape = GroupShape(N)
    if shape.odd:
        raise BadN("M'' exists only for even N")
    n = shape.n
    th = Scalar.t_unit() * Scalar.from_frac(2).inv()
    ith = Scalar.i_unit() * th
    entries = {}
    for j in range(1, n + 1):
        jp = shape.prime(j)
        entries[(j, j)] = th
        entries[(j, jp)] = th
        entries[(n + j, j)] = ith
        entries[(n + j, jp)] = -ith
    return SqMat(N, entries)


def symplectic_j(N):
    n = N // 2
    one = Scalar.one()
    entries = {}
    for j in range(1, n + 1):
        entries[(j, n + j)] = one
        entries[(n + j, j)] = -one
    return SqMat(N, entries)


def check_sostar_basis(Mpp, shape):
    """The SO*(2n) checks at q = 1 that depend only on N, for a basis Mpp:

    (i) Mpp turns the metric into the identity: Mpp^t Mpp = C;
    (ii) the canonical D''_1 conjugation transports to O bar = J O J^-1,
        i.e. bar(Mpp) C^t D''_1 Mpp^-1 = J up to one global unit, where
        Mpp^-1 = C Mpp^t by (i) and C C = 1.
    """
    C, D1 = shape.C, dsecond_canonical(shape.N)  # BadFamily for odd N
    if classical_mat(Mpp.transpose() * Mpp) != classical_mat(C):
        return False
    X = classical_mat(bar_mat(Mpp, ConjRegime.REAL_Q) * C.transpose() * D1.mat
                      * C * Mpp.transpose())
    return _match_up_to_unit(X, symplectic_j(shape.N)) is not None


def check_sostar(shape, Dsec):
    """SO*(2n) structure checks at q = 1: steps (i) and (ii) of
    `check_sostar_basis` on M'', run once per shape, then (iii) the given
    D'' reduces to D''_1 through the pair-swap witness A."""
    if not shape.once("sostar_basis",
                      lambda: check_sostar_basis(build_mpp(shape.N), shape)):
        return False
    N, n = shape.N, shape.n
    D1 = dsecond_canonical(N)
    # pair-swap permutation sending the given eps pattern to D''_1
    one = Scalar.one()
    entries = {}
    for j in range(1, n + 1):
        jp = shape.prime(j)
        if Dsec.eps[j - 1] == -1:
            entries[(j, jp)] = one
            entries[(jp, j)] = one
        else:
            entries[(j, j)] = one
            entries[(jp, jp)] = one
    A = SqMat(N, entries)
    if A * Dsec.mat != D1.mat * A:
        return False
    C1 = classical_mat(shape.C)
    if A.transpose() * C1 * A != C1:
        return False
    lhs = C1.transpose() * Dsec.mat * A
    rhs = bar_mat(A, ConjRegime.REAL_Q) * C1.transpose() * D1.mat
    return _match_up_to_unit(lhs, rhs) is not None


def check_equivalence_witness(A, spec1, spec2, shape):
    """Verify that the automorphism alpha(T) = A T A^-1 intertwines the two
    conjugations: G1 A = lam bar(A) G2 for cross, C^t G1 A = lam bar(A) C^t G2
    for star, with lam a unit scalar.  A itself must satisfy the automorphism
    conditions (up to an overall sign of the metric identity).

    Returns (True, None), or (False, witness) for the first condition that
    fails: "RDD", "metric" or "transport"."""
    if spec1.base != spec2.base or spec1.regime is not spec2.regime:
        raise ValueError("witness requires specs with a common base and regime")
    N, C = shape.N, shape.C
    detail = _r_commutation_witness(A, shape)
    if detail is not None:
        return _failed("RDD", detail)
    X = A.transpose() * C * A
    Y = A * C * A.transpose()
    if not ((X == C and Y == C) or (X == -C and Y == -C)):
        # either X and Y differ, or they agree and are not +-C
        return _failed("metric", _witness(Y, X) or _witness(X, C))
    G1 = spec1.composed(N)
    G2 = spec2.composed(N)
    barA = bar_mat(A, spec1.regime)
    if spec1.base == STAR:
        lhs = C.transpose() * G1 * A
        rhs = barA * C.transpose() * G2
    else:
        lhs = G1 * A
        rhs = barA * G2
    if _match_up_to_unit(lhs, rhs) is None:
        return _failed("transport", _witness(lhs, rhs))
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
