"""Construction of the SO_q(N) R matrix, metric, and tensor projectors,
the last as Laurent polynomial matrices over one common denominator.

The builders take N.  The per-N `GroupShape` builds the metric, R, the
projectors and P_A's row space at most once each; `check_r_reality` and the
checks in realforms, qplane and cli take it instead of N."""

from .errors import BadN
from .linalg import (
    SqMat, _decode, _kronecker_images, bar_mat, inverse, kron_embed,
    linear_combination, pack, products_equal, row_reduce, unpack,
)
from .scalars import ConjRegime, Scalar, _s_power


class GroupShape:
    """SO_q(N) for one N, and the only place N is validated: n = floor(N/2),
    parity, for odd N the self-prime middle index n2 = (N+1)/2, and the
    N-only values C (the metric), R, projectors (den, P0, PA, PS, Rhat) and
    pa_rows (P_A's reduced row echelon basis, `build_pa_rows`, the one
    elimination of P_A), each built by its builder on first use and then
    kept.  `once` keeps any other N-only value the same way.  Attributes
    cannot be rebound and kept values are immutable, so one shape serves
    every check of a run."""

    __slots__ = ("N", "n", "odd", "n2", "_kept")

    def __init__(self, N):
        if not isinstance(N, int) or N < 3:
            raise BadN(f"N must be an integer at least 3, got {N}")
        for name, value in (("N", N), ("n", N // 2), ("odd", N % 2 == 1),
                            ("n2", (N + 1) // 2 if N % 2 else None),
                            ("_kept", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"GroupShape is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GroupShape is immutable: cannot delete {name!r}")

    def prime(self, a):
        return self.N + 1 - a

    def once(self, key, build):
        """The value kept under key, from build() on first use."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    C = property(lambda self: self.once("C", lambda: build_metric(self.N)))
    R = property(lambda self: self.once("R", lambda: build_R(self.N)))
    projectors = property(lambda self: self.once(
        "projectors", lambda: build_projectors(self.R, self.N)))
    pa_rows = property(lambda self: self.once(
        "pa_rows", lambda: build_pa_rows(self.projectors[2],
                                         self.projectors[4], self.N)))


def _rho2(N):
    """2 rho_a for a = 1..N, as ints (rho is half-integral): N - 2a below
    the middle, 0 at the middle index of odd N, N + 2 - 2a above it.  With
    q = s^2, q^(c rho_a) is s^(c * 2 rho_a)."""
    return [N - 2 * a if 2 * a < N + 1 else N + 2 - 2 * a if 2 * a > N + 1
            else 0 for a in range(1, N + 1)]


def build_rho(N):
    """Half-integer weight vector; antisymmetric under the prime map."""
    from fractions import Fraction  # off the start-up path
    GroupShape(N)
    return [Fraction(r, 2) for r in _rho2(N)]


def build_metric(N):
    """Antidiagonal metric with C[a, a'] = q^(-rho_a); self-inverse."""
    shape = GroupShape(N)
    rho2 = _rho2(N)
    return SqMat(N, {(a, shape.prime(a)): _s_power(-rho2[a - 1])
                     for a in range(1, N + 1)})


def build_R(N):
    shape = GroupShape(N)
    rho2 = _rho2(N)
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
            put((a, ap), (ap, a),
                lam * (one - _s_power(rho2[a - 1] - rho2[ap - 1])))
    for a in range(1, N + 1):
        ap = shape.prime(a)
        for b in range(1, a):
            if b != ap:
                put((a, ap), (b, shape.prime(b)),
                    -lam * _s_power(rho2[a - 1] - rho2[b - 1]))
    return SqMat(N * N, entries)


def check_ybe(R, N):
    """Yang-Baxter R12 R13 R23 = R23 R13 R12 in the N^3 space.

    Returns (True, None) or (False, witness) with the first differing
    composite entry, lowest row then lowest column, both decided by
    `_integer_ybe` over the integers.  Every entry of R must lie in
    Z[s, s^-1]; TypeError otherwise.

    The SO_q(N) R matrix is invariant under sigma(a, b) = (b', a'):
    R^{ab}_{cd} = R^{b'a'}_{d'c'}.  With Q(a, b, c) = (c', b', a') on the
    N^3 space, that makes Q R12 Q = R23 and Q R13 Q = R13, so
    Q (LHS - RHS) Q = -(LHS - RHS): row Q(i) of the difference vanishes
    exactly when row i does.  When R is sigma-invariant (checked, never
    assumed) the kernel decides the identity on the rows i <= Q(i) alone,
    about half of them.  The lowest differing row r has r <= Q(r), because
    row Q(r) differs too and so is not below r.  So r is the first
    differing row of that scan, and the witness is the one a scan of every
    row gives."""
    if R.dim != N * N:
        raise BadN(f"R has dim {R.dim}, expected {N * N}")
    diff = _integer_ybe(R, N, kron_embed(R, 1, N, 3), kron_embed(R, 2, N, 3))
    if diff is None:
        return True, None
    r, c, lv, rv = diff
    return False, {"row": list(unpack(r, N, 3)), "col": list(unpack(c, N, 3)),
                   "lhs": str(lv), "rhs": str(rv)}


def _ybe_rows(R, N):
    """The rows of R12 R13 R23 - R23 R13 R12 that decide the YBE, 1-based
    and increasing: those with i <= Q(i), Q(a, b, c) = (c', b', a'), when
    R^{ab}_{cd} = R^{b'a'}_{d'c'} for every entry (one pass over R's
    entries; sigma is an involution, so a partner missing from R fails the
    pass at the partner's own entry), and every row otherwise.  Half of
    the N^3 rows at even N, (N^3 + N) / 2 at odd N, where the rows
    (a, n2, a') are fixed by Q.  See `check_ybe` for why they suffice."""
    NN, last = N * N, N - 1

    def sigma(x):
        # 1-based (a, b) -> (b', a'), 0-based primes x' = N - 1 - x
        a, b = divmod(x - 1, N)
        return (last - b) * N + last - a + 1

    entries = R.entries
    if not all(entries.get((sigma(r), sigma(c))) == v
               for (r, c), v in entries.items()):
        return range(1, N ** 3 + 1)
    rows = []
    for a in range(N):
        for b in range(N):
            # (a, b, c) <= (c', b', a') lexicographically: c < a', or
            # c = a' and b <= b'
            start = a * NN + b * N + 1
            rows.extend(range(start, start + N - a - (2 * b > last)))
    return rows


def _integer_ybe(R, N, R12, R23):
    """None if R12 R13 R23 = R23 R13 R12, else the first entry where the
    sides differ, lowest row then lowest column, as (row, col, lhs, rhs)
    with Scalar entries; decided exactly over the integers as
    `linalg.products_equal` decides a chain (images in u = s^g at
    s^g = 2^k, with 2^k > 8 beta).  R12 and R23 are R's `kron_embed`s.
    Raises TypeError if an entry of R is outside Z[s, s^-1].

    Every row of R12, R13 and R23 is a row of R with its columns relabeled,
    holding R's own entry objects, so all three factors have R's row norms,
    beta = rho(R)^3, and the images of R's entries alone serve both sides
    (`_kronecker_images([[R] * 3], [[R] * 3])`, two sides of one chain
    each).  R13 is never formed: its row (a, b, c) is R's row (a, c) with
    column (a', c') placed at (a', b, c').
    The rows accumulated are `_ybe_rows`: when R is sigma-invariant, only
    the rows i <= Q(i), in increasing order.  Row Q(i) of LHS - RHS is
    minus row i with its columns relabeled by Q, so those rows vanish
    together, and the lowest differing row is itself such a row (see
    `check_ybe`).  Otherwise every row, in the same loop.
    Each output row of LHS - RHS is accumulated into one dict, depth first
    through the three factors; the first row with a nonzero entry differs.
    There each side's integer at the lowest such column is summed alone
    and decoded with the shift 3 lo of a three-factor product."""
    # bits is the k of 2^k: k names a column below
    bits, lo, g, images = _kronecker_images([[R] * 3], [[R] * 3])
    NN, size = N * N, N ** 3
    # {row: [(col, image)]} as lists indexed by the 1-based row
    r12, r23 = [[] for _ in range(size + 1)], [[] for _ in range(size + 1)]
    for X, rows in ((R12, r12), (R23, r23)):
        for (r, c), v in X.entries.items():
            rows[r].append((c, images[id(v)]))
    # R's rows with column (a', c') at the 0-based composite (a', 0, c')
    placed = [[] for _ in range(NN + 1)]
    for (r, c), v in R.entries.items():
        a, c = divmod(c - 1, N)
        placed[r].append((a * NN + c, images[id(v)]))
    # row (a, b, c) of R13: R's placed row (a, c) and the shift b N + 1
    r13 = [None] * (size + 1)
    for a in range(N):
        for c in range(N):
            for b in range(N):
                r13[a * NN + b * N + c + 1] = placed[a * N + c + 1], b * N + 1
    for i in _ybe_rows(R, N):
        acc = {}
        for first, last, negate in ((r12, r23, False), (r23, r12, True)):
            for j, x in first[i]:
                row, shift = r13[j]
                if negate:
                    x = -x
                for k, y in row:
                    z = last[k + shift]
                    if z:
                        xy = x * y
                        for l, w in z:
                            if l in acc:
                                acc[l] += xy * w
                            else:
                                acc[l] = xy * w
        if any(acc.values()):
            break
    else:
        return None
    col = min(l for l, x in acc.items() if x)
    sides = []
    for first, last in ((r12, r23), (r23, r12)):
        n = 0
        for j, x in first[i]:
            row, shift = r13[j]
            for k, y in row:
                n += sum(x * y * w for l, w in last[k + shift] if l == col)
        sides.append(_decode(n, bits, 3 * lo, g))
    return i, col, *sides


def build_rhat(R, N):
    """Left flip: Rhat^{ab}_{cd} = R^{ba}_{cd}."""
    out = {}
    for (r, c), v in R.entries.items():
        b, a = unpack(r, N, 2)
        out[(pack((a, b), N), c)] = v
    return SqMat._of(N * N, out)


def build_projectors(R, N):
    """(den, P0, PA, PS, Rhat) for the R matrix R of SO_q(N): the trace
    projector P0, the q-antisymmetrizer PA and PS = I - PA - P0, each the
    Laurent polynomial matrix that is its numerator over den, and Rhat.

    With E = q + q^-1, D = sum_e q^(-2 rho_e) and M[(a,a'),(c,c')] =
    q^(-rho_a - rho_c): den = E D, P0 = E M (P0 = M / D over den),
    PA = D (q I - Rhat) - (q - q^(1-N)) M, where q is the unique coefficient
    of I making PA a projector orthogonal to P0, and
    PS = D (Rhat + q^-1 I) - (q^-1 + q^(1-N)) M.  Each is one
    `linear_combination` of I, Rhat and M, so no intermediate matrix is
    formed.  BadN unless R is N^2 x N^2.
    """
    shape = GroupShape(N)
    if R.dim != N * N:
        raise BadN(f"R has dim {R.dim}, expected {N * N}")
    q = Scalar.q_power(1)
    qi = Scalar.q_power(-1)
    rho2 = _rho2(N)
    D = sum((_s_power(-2 * r) for r in rho2), Scalar.zero())
    E = q + qi
    M = SqMat._of(N * N, {
        (pack((a, shape.prime(a)), N), pack((c, shape.prime(c)), N)):
        _s_power(-rho2[a - 1] - rho2[c - 1])
        for a in range(1, N + 1) for c in range(1, N + 1)})
    Rhat = build_rhat(R, N)
    I = SqMat.identity(N * N)
    q1N = Scalar.q_power(1 - N)
    PA = linear_combination([(D * q, I), (-D, Rhat), (q1N - q, M)])
    PS = linear_combination([(D * qi, I), (D, Rhat), (-(qi + q1N), M)])
    return E * D, linear_combination([(E, M)]), PA, PS, Rhat


def build_pa_rows(PA, Rhat, N):
    """P_A's reduced row echelon basis, by one `row_reduce`, as a matrix:
    the reduced row that the input row r opened is row r, and the rows
    that open no pivot are zero.

    The rows reduced are P_A's own rows (a, a') and the rows of q I - Rhat
    everywhere else.  M is zero off the rows (a, a'), so there
    P_A = D (q I - Rhat) (see `build_projectors`).  Each row is P_A's row
    over a nonzero scalar, so they open the same pivots, the increasing
    pairs, with the same reduced rows as P_A, and the entries reduced are
    free of D's span of about 4N s-exponents.  Each reduced row is zero at
    the other pivots, and its pivot (a, b) is its lowest nonzero column:
    its other columns are pairs (c, d) with c >= d and c > a.  So reducing
    this matrix again, in this column order or in
    `qplane.plane_relations`'s, takes no elimination step."""
    support = {pack((a, N + 1 - a), N) for a in range(1, N + 1)}
    cleared = linear_combination([(Scalar.q_power(1), SqMat.identity(N * N)),
                                  (-Scalar.one(), Rhat)])
    rows = [{} for _ in range(N * N)]
    for X, on_support in ((PA, True), (cleared, False)):
        for (r, c), v in X.entries.items():
            if (r in support) == on_support:
                rows[r - 1][c - 1] = v
    return SqMat._of(N * N, {(index + 1, c + 1): v
                             for _, row, index in row_reduce(rows)
                             for c, v in row.items()})


def check_char_eq(Rhat, N):
    """Cubic characteristic equation of the flipped R matrix Rhat:
    (Rhat - q I)(Rhat + q^-1 I)(Rhat - q^(1-N) I) = 0."""
    return products_equal(_char_eq_factors(Rhat, N))


def _char_eq_factors(Rhat, N):
    # the three factors of `check_char_eq`, each one `linear_combination`
    I, one = SqMat.identity(N * N), Scalar.one()
    return [linear_combination([(one, Rhat), (c, I)])
            for c in (-Scalar.q_power(1), Scalar.q_power(-1),
                      -Scalar.q_power(1 - N))]


def check_r_reality(R, shape, regime):
    """Reality of an R matrix R of SO_q(N), N = shape.N: bar(R) = R^-1 for
    |q| = 1; bar(R^{ab}_{cd}) = R^{dc}_{ba} for q real."""
    N = shape.N
    if R.dim != N * N:
        raise BadN(f"R has dim {R.dim}, expected {N * N}")
    if regime is ConjRegime.UNIT_MODULUS_Q:
        return bar_mat(R, regime) == inverse(R)
    flipped = {}
    for (r, c), v in R.entries.items():
        d, cc = unpack(c, N, 2)
        a, b = unpack(r, N, 2)
        flipped[(pack((cc, d), N), pack((b, a), N))] = v
    return bar_mat(R, regime) == SqMat._of(R.dim, flipped)
