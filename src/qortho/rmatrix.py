"""Construction of the SO_q(N) R matrix, metric, and tensor projectors."""

from fractions import Fraction

from .errors import BadN
from .linalg import SqMat, bar_mat, first_diff, inverse, kron_embed, pack, unpack
from .scalars import ConjRegime, Scalar


class GroupShape:
    """N with its derived index data: n = floor(N/2), parity, and for odd
    N the self-prime middle index n2 = (N+1)/2."""

    __slots__ = ("N", "n", "odd", "n2")

    def __init__(self, N):
        if not isinstance(N, int) or N < 3:
            raise BadN(f"N must be an integer >= 3, got {N}")
        self.N = N
        self.n = N // 2
        self.odd = N % 2 == 1
        self.n2 = (N + 1) // 2 if self.odd else None

    def prime(self, a):
        return self.N + 1 - a


def build_rho(N):
    """Half-integer weight vector; antisymmetric under the prime map."""
    shape = GroupShape(N)
    n = shape.n
    rho = []
    for a in range(1, N + 1):
        if shape.odd:
            if a < shape.n2:
                rho.append(Fraction(N, 2) - a)
            elif a == shape.n2:
                rho.append(Fraction(0))
            else:
                rho.append(Fraction(N, 2) + 1 - a)
        else:
            rho.append(Fraction(n - a) if a <= n else Fraction(n + 1 - a))
    return rho


def build_metric(N):
    """Antidiagonal metric with C[a, a'] = q^(-rho_a); self-inverse."""
    rho = build_rho(N)
    shape = GroupShape(N)
    return SqMat(N, {(a, shape.prime(a)): Scalar.q_power(-rho[a - 1])
                     for a in range(1, N + 1)})


def build_R(N):
    shape = GroupShape(N)
    rho = build_rho(N)
    q = Scalar.q_power(1)
    qi = Scalar.q_power(-1)
    one = Scalar.one()
    lam = q - qi
    entries = {}

    def put(row, col, val):
        key = (pack(row, N), pack(col, N))
        if key in entries:
            raise AssertionError(f"R entry collision at {row},{col}")
        if not val.is_zero():
            entries[key] = val

    for a in range(1, N + 1):
        ap = shape.prime(a)
        if a == ap:
            put((a, a), (a, a), one)
        else:
            put((a, a), (a, a), q)
            put((a, ap), (a, ap), qi)
    for a in range(1, N + 1):
        ap = shape.prime(a)
        for b in range(1, N + 1):
            if b != a and b != ap:
                put((a, b), (a, b), one)
    for a in range(1, N + 1):
        ap = shape.prime(a)
        for b in range(1, a):
            if b != ap:
                put((a, b), (b, a), lam)
    for a in range(1, N + 1):
        ap = shape.prime(a)
        if a > ap:
            put((a, ap), (ap, a), lam * (one - Scalar.q_power(rho[a - 1] - rho[ap - 1])))
    for a in range(1, N + 1):
        ap = shape.prime(a)
        for b in range(1, a):
            if b != ap:
                put((a, ap), (b, shape.prime(b)),
                    -lam * Scalar.q_power(rho[a - 1] - rho[b - 1]))
    return SqMat(N * N, entries)


def embed_13(R, N):
    """R acting on tensor slots 1 and 3 of the N^3 space, identity on 2."""
    out = {}
    for (r, c), v in R.entries.items():
        a, e = unpack(r, N, 2)
        d, f = unpack(c, N, 2)
        for b in range(1, N + 1):
            out[(pack((a, b, e), N), pack((d, b, f), N))] = v
    return SqMat._of(N ** 3, out)


def check_ybe(R, N):
    """Yang-Baxter R12 R13 R23 = R23 R13 R12 in the N^3 space.

    Returns (True, None) or (False, witness) with the first differing
    composite entry."""
    if R.dim != N * N:
        raise BadN(f"R has dim {R.dim}, expected {N * N}")
    R12 = kron_embed(R, 1, N, 3)
    R23 = kron_embed(R, 2, N, 3)
    R13 = embed_13(R, N)
    diff = first_diff(R12 * R13 * R23, R23 * R13 * R12)
    if diff is None:
        return True, None
    r, c, lv, rv = diff
    return False, {"row": list(unpack(r, N, 3)), "col": list(unpack(c, N, 3)),
                   "lhs": str(lv), "rhs": str(rv)}


def build_rhat(R, N):
    """Left flip: Rhat^{ab}_{cd} = R^{ba}_{cd}."""
    out = {}
    for (r, c), v in R.entries.items():
        b, a = unpack(r, N, 2)
        out[(pack((a, b), N), c)] = v
    return SqMat._of(N * N, out)


def build_projectors(N):
    """Trace projector P0, q-antisymmetrizer PA, and PS = I - PA - P0.

    PA = (q + q^-1)^-1 (-Rhat + q I - (q - q^(1-N)) P0); q is the unique
    coefficient of I making PA a projector orthogonal to P0.
    """
    q = Scalar.q_power(1)
    qi = Scalar.q_power(-1)
    rho = build_rho(N)
    shape = GroupShape(N)
    lam_metric = Scalar.zero()
    for e in range(1, N + 1):
        lam_metric = lam_metric + Scalar.q_power(-2 * rho[e - 1])
    p0 = {}
    coef = lam_metric.inv()
    for a in range(1, N + 1):
        for c in range(1, N + 1):
            row = pack((a, shape.prime(a)), N)
            col = pack((c, shape.prime(c)), N)
            p0[(row, col)] = coef * Scalar.q_power(-rho[a - 1] - rho[c - 1])
    P0 = SqMat(N * N, p0)
    Rhat = build_rhat(build_R(N), N)
    I = SqMat.identity(N * N)
    PA = ((q + qi).inv()) * (-Rhat + q * I - (q - Scalar.q_power(1 - N)) * P0)
    PS = I - PA - P0
    return P0, PA, PS, Rhat


def check_char_eq(Rhat, N):
    """Cubic characteristic equation of the flipped R matrix Rhat."""
    I = SqMat.identity(N * N)
    prod = ((Rhat - Scalar.q_power(1) * I)
            * (Rhat + Scalar.q_power(-1) * I)
            * (Rhat - Scalar.q_power(1 - N) * I))
    return prod.is_zero()


def check_r_reality(R, regime):
    """Reality of R: bar(R) = R^-1 for |q| = 1; bar(R^{ab}_{cd}) = R^{dc}_{ba}
    for q real."""
    N = round(R.dim ** 0.5)
    if N * N != R.dim:
        raise BadN(f"dim {R.dim} is not a square")
    if regime is ConjRegime.UNIT_MODULUS_Q:
        return bar_mat(R, regime) == inverse(R)
    flipped = {}
    for (r, c), v in R.entries.items():
        d, cc = unpack(c, N, 2)
        a, b = unpack(r, N, 2)
        flipped[(pack((cc, d), N), pack((b, a), N))] = v
    return bar_mat(R, regime) == SqMat._of(R.dim, flipped)
