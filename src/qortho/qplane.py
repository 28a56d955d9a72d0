"""Quantum orthogonal planes as quadratic rewriting systems.

Relations come from the antisymmetric projector: each row of P_A applied
to x (x) x must vanish.  Row reduction with increasing pairs as pivot
columns turns the row space into one rewrite rule per pair x^a x^b (a < b),
with right-hand sides supported on weakly decreasing words.  The x3 = +-x2
quotient of the N=4 plane is built the same way, from the images of its
relations in three generators.  A rewriting system, which has these
quadratic rules only, certifies termination before it rewrites; the
diamond lemma on overlaps then certifies confluence, so weakly decreasing
words form a monomial basis and normal forms decide ideal membership.

Words are plain tuples of generator indices; the empty tuple is the unit.
"""

from types import MappingProxyType

from .errors import BadN, DimMismatch, NotUnit, QorthoError, RankMismatch
from .linalg import row_reduce, unpack
from .rmatrix import GroupShape
from .scalars import _T_SQUARED, Scalar, _accumulate


class NCPoly:
    """Noncommutative polynomial: read-only map word -> Scalar, zero terms
    dropped.  The terms cannot be rebound, so a certified rule stays as
    certified."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", MappingProxyType(
            {tuple(w): v for w, v in (terms or {}).items() if not v.is_zero()}))

    @staticmethod
    def _of(terms):
        """Trusted constructor: `terms` is a fresh dict from tuple words to
        nonzero Scalars that no caller keeps a reference to."""
        p = NCPoly.__new__(NCPoly)
        object.__setattr__(p, "terms", MappingProxyType(terms))
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"NCPoly is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"NCPoly is immutable: cannot delete {name!r}")

    @staticmethod
    def zero():
        return NCPoly()

    @staticmethod
    def const(c):
        return NCPoly({(): c})

    @staticmethod
    def gen(a):
        return NCPoly({(a,): Scalar.one()})

    @staticmethod
    def word(w, coeff=None):
        return NCPoly({tuple(w): coeff if coeff is not None else Scalar.one()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, v in other.terms.items():
            _accumulate(out, w, v)
        return NCPoly._of(out)

    def __neg__(self):
        return NCPoly({w: -v for w, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            out = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    _accumulate(out, w1 + w2, c1 * c2)
            return NCPoly._of(out)
        return NCPoly({w: v * other for w, v in self.terms.items()})

    def __rmul__(self, other):
        # scalar * poly; scalars commute with coefficients
        return NCPoly({w: other * v for w, v in self.terms.items()})

    def sorted_terms(self):
        """Canonical order: degree, then lexicographic on words."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            mono = "".join(f"x{a}" for a in w) or "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<NCPoly {self}>"


def _measure(word):
    # (degree, reversed index order); well-founded, and u < v gives
    # x u y < x v y, so lowering rules terminate
    return (len(word), tuple(-l for l in word))


def _normalize_terms(terms, pair_rules):
    # `terms` holds no zero coefficients, and `_accumulate` stores none
    out = {}
    work = dict(terms)
    while work:
        w = min(work)
        c = work.pop(w)
        for i in range(len(w) - 1):
            rep = pair_rules.get(w[i:i + 2])
            if rep is not None:
                for w2, c2 in rep.terms.items():
                    _accumulate(work, w[:i] + w2 + w[i + 2:], c * c2)
                break
        else:
            _accumulate(out, w, c)
    return out


class RewriteSystem:
    """Quadratic rules x^a x^b -> lower terms (a < b) on the letters 1..N.

    Construction first checks each rule's letters and certifies that it
    lowers the termination measure.  One pass then normalizes every
    right-hand side; a second could change nothing, as irreducibility
    depends only on the rule keys.  Rules are read-only and no attribute
    can be rebound."""

    __slots__ = ("N", "pair_rules")

    def __init__(self, N, pair_rules):
        if not isinstance(N, int) or N < 1:
            raise BadN(f"width must be a positive integer, got {N!r}")
        object.__setattr__(self, "N", N)
        pair_rules = dict(pair_rules)
        for (a, b), rhs in pair_rules.items():
            if not (1 <= a < b <= N):
                raise ValueError(f"pair rule key must satisfy 1 <= a < b <= N: {(a, b)}")
            for w in rhs.terms:
                if any(l < 1 or l > N for l in w):
                    raise ValueError(f"rule {(a, b)} uses letters outside 1..{N}")
                if not _measure(w) < _measure((a, b)):
                    raise QorthoError(f"rule {(a, b)} does not decrease the "
                                      f"termination measure at {w}")
        for key, rhs in pair_rules.items():
            pair_rules[key] = NCPoly._of(_normalize_terms(rhs.terms, pair_rules))
        object.__setattr__(self, "pair_rules", MappingProxyType(pair_rules))

    def __setattr__(self, name, value):
        raise AttributeError(f"RewriteSystem is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RewriteSystem is immutable: cannot delete {name!r}")

    def __repr__(self):
        return f"<RewriteSystem N={self.N} rules={len(self.pair_rules)}>"


def normal_form(p, rs):
    """Rewrite p to its normal form (leftmost redex first).  Terminates
    without a step count: construction certified that every rule lowers the
    termination measure, so every rewriting sequence stops."""
    for w in p.terms:
        if any(l < 1 or l > rs.N for l in w):
            raise ValueError(f"word {w} uses letters outside 1..{rs.N}")
    return NCPoly._of(_normalize_terms(p.terms, rs.pair_rules))


def _quadratic_rules(N, relations, what):
    """One rule per increasing pair from the degree-2 `relations`, maps
    {(a, b): coeff} in N letters, row reduced with the increasing pairs as
    the first columns.  Raises RankMismatch, naming `what`, unless the
    pivots are exactly the increasing pairs, and NotUnit if a reduced row
    is not Laurent (its pivot is not a unit)."""
    inc = [(a, b) for a in range(1, N + 1) for b in range(a + 1, N + 1)]
    rest = [(a, b) for a in range(1, N + 1) for b in range(1, a + 1)]
    cols = inc + rest
    colpos = {pair: k for k, pair in enumerate(cols)}

    basis = row_reduce([{colpos[w]: v for w, v in rel.items()}
                        for rel in relations])
    pivots = {cols[piv] for piv, _, _ in basis}
    if pivots != set(inc):
        raise RankMismatch(f"{what} pivots {sorted(pivots)} are not the "
                           f"increasing pairs for N={N}")
    for piv, vec, _ in basis:
        if vec[piv] != Scalar.one():
            raise NotUnit(f"{what} rule for {cols[piv]} has the non-unit "
                          f"pivot {vec[piv]}")
    return RewriteSystem(N, {
        cols[piv]: NCPoly({cols[k]: -v for k, v in vec.items() if k != piv})
        for piv, vec, _ in basis})


def plane_relations(shape):
    """Rewrite rules of the N-generator quantum orthogonal plane, one per
    increasing pair, from the reduced rows of P_A's row space.

    `shape.pa_rows` is already P_A's reduced basis, so reducing it again
    with the increasing pairs first takes no elimination step: a basis row
    is zero at the other pivots and its pivot is its lowest column in this
    order too.  RankMismatch if the pivots are not the increasing pairs."""
    N = shape.N
    rows = {}
    for (r, c), v in shape.pa_rows.entries.items():
        rows.setdefault(r, {})[unpack(c, N, 2)] = v
    return _quadratic_rules(N, [rows[r] for r in sorted(rows)], "P_A")


def check_confluence(rs):
    """Diamond lemma on overlaps.  For words x^a x^b x^c with both (a,b)
    and (b,c) rules, the two one-step reducts must share a normal form.
    Returns (True, None) or (False, witness)."""
    for (a, b), rhs_ab in sorted(rs.pair_rules.items()):
        for c in range(b + 1, rs.N + 1):
            rhs_bc = rs.pair_rules.get((b, c))
            if rhs_bc is None:
                continue
            left = normal_form(rhs_ab * NCPoly.gen(c), rs)
            right = normal_form(NCPoly.gen(a) * rhs_bc, rs)
            if left != right:
                return False, {"overlap": [a, b, c], "left": str(left),
                               "right": str(right)}
    return True, None


def _substitute(terms, images):
    """The sum of c * images[w1] ... images[wk] over the (w, c) of `terms`."""
    out = NCPoly.zero()
    for w, c in terms.items():
        term = NCPoly.const(c)
        for l in w:
            term = term * images[l]
        out = out + term
    return out


def conj_poly(p, K, regime):
    """Antilinear anti-multiplicative extension of x* = K x: coefficients
    are conjugated, generators mapped through K, word order reversed.
    Raises DimMismatch for a letter outside 1..K.dim."""
    images = {a: NCPoly({(b,): K.get(a, b) for b in range(1, K.dim + 1)})
              for a in range(1, K.dim + 1)}
    outside = sorted({a for w in p.terms for a in w} - images.keys())
    if outside:
        raise DimMismatch(f"letters {outside} outside the {K.dim} generators "
                          "of K")
    return _substitute({w[::-1]: c.bar(regime) for w, c in p.terms.items()},
                       images)


def check_star_consistency(rs, K, regime):
    """The conjugation must be an involution on generators and must map
    every defining relation into the relation ideal (normal form zero).
    Raises DimMismatch unless K is N x N for the plane's N generators."""
    if K.dim != rs.N:
        raise DimMismatch(f"K is {K.dim}x{K.dim}, the plane has {rs.N} generators")
    for a in range(1, rs.N + 1):
        g = NCPoly.gen(a)
        if conj_poly(conj_poly(g, K, regime), K, regime) != g:
            return False
    for (a, b), rhs in rs.pair_rules.items():
        rel = NCPoly.word((a, b)) - rhs
        if not normal_form(conj_poly(rel, K, regime), rs).is_zero():
            return False
    return True


def quotient_check(sign, include_scaling=True):
    """Embed the three-generator plane into the N=4 plane modulo x3 = (+-)x2.

    The quotient is built on three generators from the images of the N=4
    relations under psi: x1, x2, x3, x4 -> x1, x2, (+-)x2, x3.  psi is the
    map F4 -> F3 killing x3 -+ x2 (x4 renamed x3), so this system and the
    N=4 one with a rule x3 -> (+-)x2 present the same algebra, and psi keeps
    right-hand sides on weakly decreasing words.  If the pivots are the
    increasing pairs, both systems have those words as irreducible words:
    one is confluent exactly when the other is, and in both a normal form
    is zero exactly on the ideal.  An extra pivot puts a nonzero
    combination of them into the ideal, so neither is confluent: False.

    The substitution is y1 -> x1, y2 -> t*x2 (i*t*x2 for the minus sign),
    y3 -> x3, with t = sqrt(q^(1/2) + q^(-1/2)); every three-generator
    relation must normalize to zero in the quotient system.  With
    include_scaling False the t factor is dropped, which is the documented
    failure mode.

    t is never formed.  A word with m letters y2 maps to t^m times its
    image under y2 -> x2 (i*x2), and t^m is (s + 1/s)^(m // 2) times
    t^(m % 2).  So a relation's image is A + t*B, A from the words with
    even m and B from those with odd m, both free of t.  The quotient
    rules are free of t too, so the normal form is nf(A) + t*nf(B), and
    it is zero exactly when nf(A) = nf(B) = 0: 1 and t are independent
    over Q(i)(s), since t^2 = (s^2 + 1)/s has odd order at s = 0 and so is
    not a square there."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    psi = {1: NCPoly.gen(1), 2: NCPoly.gen(2),
           3: NCPoly({(2,): Scalar.from_frac(sign)}), 4: NCPoly.gen(3)}
    relations = [_substitute((NCPoly.word(lhs) - rhs).terms, psi).terms
                 for lhs, rhs in plane_relations(GroupShape(4)).pair_rules.items()]
    try:
        quotient = _quadratic_rules(3, relations, "x3 = (+-)x2 quotient")
    except RankMismatch:
        return False
    ok, _ = check_confluence(quotient)
    if not ok:
        return False
    unit = Scalar.i_unit() if sign == -1 else Scalar.one()
    images = {1: NCPoly.gen(1), 2: NCPoly({(2,): unit}), 3: NCPoly.gen(3)}
    for (a, b), rhs in plane_relations(GroupShape(3)).pair_rules.items():
        parts = ({}, {})  # the t^0 and t^1 parts of the relation
        for w, c in (NCPoly.word((a, b)) - rhs).terms.items():
            m = w.count(2) if include_scaling else 0
            for _ in range(m // 2):
                c = c * _T_SQUARED
            parts[m % 2][w] = c
        for part in parts:
            if not normal_form(_substitute(part, images), quotient).is_zero():
                return False
    return True


def rules_json(rs):
    """Rule dump: [{"lhs": [a, b], "rhs": [{"word": [...], "coeff": "..."}]}]."""
    out = []
    for (a, b), rhs in sorted(rs.pair_rules.items()):
        out.append({"lhs": [a, b],
                    "rhs": [{"word": list(w), "coeff": str(c)}
                            for w, c in rhs.sorted_terms()]})
    return out
