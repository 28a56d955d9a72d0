"""Sparse exact matrices: products, embeddings, inverse, signature,
antilinear fixed bases."""

import itertools
import random
from fractions import Fraction

import pytest

from qortho.errors import (
    Degenerate, DimMismatch, NotInvolution, NotReal, NotSymmetric, Singular,
)
from qortho.linalg import (
    SqMat, antilinear_fixed_basis, bar_mat, classical_mat, inverse,
    kron_embed, pack, rank, signature, unpack,
)
from qortho.rmatrix import GroupShape, build_R, embed_13
from qortho.scalars import ConjRegime, Scalar

ONE = Scalar.one()
I_ = Scalar.i_unit()


def sp(k):
    """s^k, with s = q^(1/2)."""
    return Scalar.q_power(Fraction(k, 2))


def mat(dim, entries):
    """SqMat whose entries may also be ints or Fractions."""
    return SqMat(dim, {k: v if isinstance(v, Scalar) else Scalar.from_frac(v)
                       for k, v in entries.items()})


def metric(n, rho):
    # antidiagonal q^(-rho_a) at (a, a'); test-local construction
    return SqMat(n, {(a, n + 1 - a): Scalar.q_power(-rho[a - 1])
                     for a in range(1, n + 1)})


C3 = metric(3, [Fraction(1, 2), 0, Fraction(-1, 2)])
C4 = metric(4, [1, 0, 0, -1])
D4 = mat(4, {(1, 1): 1, (2, 3): 1, (3, 2): 1, (4, 4): 1})


def test_pack_unpack():
    assert pack((1, 1), 4) == 1
    assert pack((2, 3), 4) == 7
    assert pack((4, 4), 4) == 16
    assert unpack(7, 4, 2) == (2, 3)
    for idx in range(1, 28):
        assert pack(unpack(idx, 3, 3), 3) == idx


def test_matmul_metric_self_inverse():
    assert C3 * C3 == SqMat.identity(3)
    assert C4 * C4 == SqMat.identity(4)
    assert D4 * D4 == SqMat.identity(4)
    assert C4 * SqMat.identity(4) == C4


def test_entries_are_read_only():
    for A in (C4, C4 * D4, C4 + D4, -C4, C4.transpose(), kron_embed(D4, 1, 4, 2)):
        with pytest.raises(TypeError):
            A.entries[(1, 1)] = ONE
        with pytest.raises(AttributeError):
            A.entries = {(1, 1): ONE}
        with pytest.raises(AttributeError):
            A.dim = 5
        with pytest.raises(AttributeError):
            del A.dim


def entrywise_product(A, B):
    # reference: one Scalar * and + per term, never a multi-pair sum
    out = {}
    for (i, k), v in A.entries.items():
        for (k2, j), w in B.entries.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), Scalar.zero()) + v * w
    return {key: x for key, x in out.items() if not x.is_zero()}


def test_product_kernel_matches_entrywise_reference():
    den, P0, PA, _, _ = GroupShape(4).projectors
    P0, PA = P0.scale(den.inv()), PA.scale(den.inv())
    # PA's entries mix the denominators q + q^-1 and sum_e q^(-2 rho_e)
    assert len({tuple(sorted(v.d.items())) for v in PA.entries.values()}) >= 2
    T = Scalar.t_unit()
    X = PA.scale(ONE + T) + SqMat.diag([T * sp(k) for k in range(16)])
    assert any(v.n1 for v in X.entries.values())
    for A, B in ((PA, PA), (P0, PA), (X, PA), (PA, X)):
        product = A * B
        assert dict(product.entries) == entrywise_product(A, B)
        assert all(not v.is_zero() for v in product.entries.values())
    assert PA * PA == PA
    # P_A P_0 = 0: every entry cancels and none is stored
    assert not (PA * P0).entries


def random_mixed_matrix(rng, dim):
    # about half the slots filled, each with a unit monomial, a Laurent
    # polynomial (sometimes with t) or a rational entry
    T = Scalar.t_unit()
    pools = (
        [c * sp(k) for c in (ONE, -ONE, I_, Scalar.from_frac(Fraction(-1, 3)))
         for k in (-2, 0, 3)],
        [sp(1) + sp(-1), sp(2) - Scalar.from_frac(2) * sp(-2), ONE + T * sp(1),
         T - I_],
        [ONE / (ONE + sp(1)), (sp(1) - ONE) / (sp(2) + ONE), T / (sp(1) - I_)],
    )
    return SqMat(dim, {(r, c): rng.choice(rng.choice(pools))
                       for r in range(1, dim + 1) for c in range(1, dim + 1)
                       if rng.random() < 0.5})


def test_product_of_mixed_entries_matches_entrywise_reference():
    rng = random.Random(7)
    for _ in range(20):
        A, B = random_mixed_matrix(rng, 4), random_mixed_matrix(rng, 4)
        product = A * B
        assert dict(product.entries) == entrywise_product(A, B)
        for v in product.entries.values():
            w = Scalar(dict(v.n0), dict(v.n1), dict(v.d))
            assert (w.n0, w.n1, w.d) == (v.n0, v.n1, v.d)


def test_dim_mismatch():
    with pytest.raises(DimMismatch):
        C3 * C4
    with pytest.raises(DimMismatch):
        C3 + C4


def test_kron_embed_identity():
    for slot in (1, 2, 3):
        assert kron_embed(SqMat.identity(3), slot, 3, 3) == SqMat.identity(27)


def test_kron_embed_slot_expansion():
    D1 = kron_embed(D4, 1, 4, 2)
    # D exchanges indices 2 and 3 in the first slot only
    assert D1.get(pack((2, 1), 4), pack((3, 1), 4)) == ONE
    assert D1.get(pack((1, 2), 4), pack((1, 2), 4)) == ONE
    assert D1.get(pack((1, 2), 4), pack((1, 3), 4)).is_zero()
    D2 = kron_embed(D4, 2, 4, 2)
    assert D1 * D2 == D2 * D1


def test_kron_embed_adjacent_pair():
    A = mat(9, {(pack((a, b), 3), pack((b, a), 3)): 1
                for a in range(1, 4) for b in range(1, 4)})  # flip on 2 slots
    A12 = kron_embed(A, 1, 3, 3)
    assert A12.get(pack((2, 1, 3), 3), pack((1, 2, 3), 3)) == ONE
    A23 = kron_embed(A, 2, 3, 3)
    assert A23.get(pack((3, 2, 1), 3), pack((3, 1, 2), 3)) == ONE
    with pytest.raises(DimMismatch):
        kron_embed(A, 3, 3, 3)


def distinct_entries(dim):
    # a full matrix whose entries all differ, so a misplaced one shows
    return SqMat(dim, {(r, c): sp(dim * r + c) for r in range(1, dim + 1)
                       for c in range(1, dim + 1)})


def delta_embed(A, slot, width, arity):
    # reference: entry (row, col) is A's entry on the slots A acts on, times
    # a Kronecker delta on every other slot
    span = 1 if A.dim == width else 2
    acted = range(slot - 1, slot - 1 + span)
    out = {}
    for row in itertools.product(range(1, width + 1), repeat=arity):
        for col in itertools.product(range(1, width + 1), repeat=arity):
            if all(row[i] == col[i] for i in range(arity) if i not in acted):
                out[(pack(row, width), pack(col, width))] = A.get(
                    pack([row[i] for i in acted], width),
                    pack([col[i] for i in acted], width))
    return SqMat(width ** arity, out)


@pytest.mark.parametrize("span, slot", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_kron_embed_matches_delta_construction(span, slot):
    A = distinct_entries(3 ** span)
    assert kron_embed(A, slot, 3, 3) == delta_embed(A, slot, 3, 3)


@pytest.mark.parametrize("R", [build_R(3), distinct_entries(9)],
                         ids=["so3", "distinct"])
def test_embed_13_conjugates_r12_by_the_23_flip(R):
    flip = mat(9, {(pack((a, b), 3), pack((b, a), 3)): 1
                   for a in range(1, 4) for b in range(1, 4)})
    P23 = kron_embed(flip, 2, 3, 3)
    assert embed_13(R, 3) == P23 * kron_embed(R, 1, 3, 3) * P23


@pytest.mark.parametrize("dim, slot, arity", [
    (2, 1, 3), (27, 1, 3), (3, 0, 3), (3, 4, 3), (9, 0, 3), (9, 3, 3),
    (9, 1, 1),
])
def test_kron_embed_rejects_what_does_not_fit(dim, slot, arity):
    with pytest.raises(DimMismatch):
        kron_embed(SqMat.identity(dim), slot, 3, arity)


def test_inverse_metric_and_random():
    assert inverse(C4) == C4
    assert inverse(C3) == C3
    A = SqMat(3, {(1, 1): Scalar.q_power(1), (1, 3): ONE, (2, 2): sp(1) + ONE,
                  (3, 1): I_, (3, 3): sp(-2)})
    assert A * inverse(A) == SqMat.identity(3)
    assert inverse(A) * A == SqMat.identity(3)


def test_inverse_singular():
    with pytest.raises(Singular):
        inverse(mat(3, {(1, 1): 1, (2, 1): 1}))


def test_rank():
    assert rank(SqMat.identity(4)) == 4
    assert rank(mat(3, {(1, 1): 1, (2, 2): 1})) == 2
    assert rank(SqMat(3, {(1, 1): ONE, (2, 1): sp(3)})) == 1
    # row 3 = row 1 + q*row 2, a multiple of neither: it must be reduced
    # against two basis rows before it vanishes
    q = Scalar.q_power(1)
    assert rank(SqMat(3, {(1, 1): ONE, (1, 2): sp(1),
                          (2, 2): ONE, (2, 3): I_,
                          (3, 1): ONE, (3, 2): sp(1) + q, (3, 3): q * I_})) == 2


def test_transpose_trace():
    A = SqMat(2, {(1, 2): sp(1)})
    assert A.transpose() == SqMat(2, {(2, 1): sp(1)})
    assert (A + A.transpose()).trace().is_zero()
    assert SqMat.identity(5).trace() == Scalar.from_frac(5)


def test_bar_and_classical_maps():
    A = SqMat(2, {(1, 1): sp(2), (1, 2): I_})
    assert bar_mat(A, ConjRegime.UNIT_MODULUS_Q) == SqMat(2, {(1, 1): sp(-2), (1, 2): -I_})
    assert classical_mat(A) == mat(2, {(1, 1): 1, (1, 2): I_})


# --- signature ---------------------------------------------------------------

def diag_mat(*vals):
    return SqMat.diag([Scalar.from_frac(v) for v in vals])


def test_signature_diagonal():
    assert signature(diag_mat(1, 1, 1, 1)) == (4, 0)
    assert signature(diag_mat(1, 1, -1, 1)) == (3, 1)
    assert signature(diag_mat(-2, 5)) == (1, 1)


def test_signature_antidiagonal():
    # independent oracle: x1*x4 + x2*x3 doubled splits into two hyperbolic
    # planes, each contributing (+1, -1)
    J = mat(4, {(a, 5 - a): 1 for a in range(1, 5)})
    assert signature(J) == (2, 2)


def test_signature_congruence_invariant():
    S = diag_mat(1, -1, 3)
    P = mat(3, {(1, 1): 1, (1, 2): 2, (2, 2): 1, (3, 1): 5, (3, 3): 1})
    assert signature(P.transpose() * S * P) == (2, 1)


def test_signature_errors():
    with pytest.raises(NotSymmetric):
        signature(mat(2, {(1, 2): 1}))
    with pytest.raises(Degenerate):
        signature(mat(2, {(1, 1): 1}))
    with pytest.raises(NotReal):
        signature(mat(2, {(1, 1): I_, (2, 2): 1}).map_entries(lambda v: v))
    with pytest.raises(NotReal):
        signature(mat(2, {(1, 1): sp(1), (2, 2): 1}))


# --- antilinear fixed basis --------------------------------------------------

def test_fixed_basis_identity():
    assert antilinear_fixed_basis(SqMat.identity(4)) == SqMat.identity(4)


def check_fixed(K):
    M = antilinear_fixed_basis(K)
    conj = M.map_entries(lambda v: Scalar.from_gauss(v.as_gauss().conj()))
    assert conj * K == M
    Minv = inverse(M)
    return Minv


def test_fixed_basis_compact_so3():
    K = mat(3, {(1, 3): 1, (2, 2): 1, (3, 1): 1})  # metric at q=1, transposed
    Minv = check_fixed(K)
    S = Minv.transpose() * K * Minv  # here C^t = C = K at q=1
    assert signature(S) == (3, 0)


def test_fixed_basis_minkowski():
    C1 = mat(4, {(a, 5 - a): 1 for a in range(1, 5)})
    K = C1.transpose() * D4
    Minv = check_fixed(K)
    S = Minv.transpose() * C1 * Minv
    assert signature(S) == (3, 1)


def test_fixed_basis_complex_k():
    # K*bar(K) = I but K*K = -I: the involution check must conjugate
    check_fixed(SqMat.diag([I_, -I_]))


def test_fixed_basis_not_involution():
    with pytest.raises(NotInvolution):
        antilinear_fixed_basis(mat(2, {(1, 1): 2, (2, 2): 1}))
    with pytest.raises(NotReal):
        antilinear_fixed_basis(mat(2, {(1, 1): sp(1), (2, 2): 1}))


def test_json_dump():
    A = SqMat(2, {(2, 1): sp(1), (1, 1): ONE})
    assert A.to_json() == {"dim": 2, "entries": [[1, 1, "1*s^0"], [2, 1, "1*s^1"]]}
