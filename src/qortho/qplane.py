"""Quantum orthogonal planes as quadratic rewriting systems.

Relations come from the antisymmetric projector: each row of P_A applied
to x (x) x must vanish.  Row reduction with increasing pairs as pivot
columns turns the row space into one rewrite rule per pair x^a x^b (a < b),
with right-hand sides supported on weakly decreasing words.  A rewriting
system certifies termination before it rewrites; the diamond lemma on
overlaps then certifies confluence, so weakly decreasing words form a
monomial basis and normal forms decide ideal membership.

Words are plain tuples of generator indices; the empty tuple is the unit.
"""

from types import MappingProxyType

from .errors import BadN, QorthoError, RankMismatch
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


def _measure(word, letter_rules):
    # (degree, letters that still carry a letter rule, reversed index order);
    # well-founded, and u < v gives x u y < x v y, so lowering rules terminate
    return (len(word), sum(1 for l in word if l in letter_rules),
            tuple(-l for l in word))


def _certify(rules, letter_rules):
    """Raise unless every right-hand side lies below its left-hand word;
    `rules` maps left-hand words (letters as 1-tuples) to NCPolys."""
    for lhs, rhs in rules.items():
        bound = _measure(lhs, letter_rules)
        for w in rhs.terms:
            if not _measure(w, letter_rules) < bound:
                name = lhs if len(lhs) == 2 else f"x{lhs[0]}"
                raise QorthoError(f"rule {name} does not decrease the "
                                  f"termination measure at {w}")


def _reduce_spot(word, pair_rules, letter_rules):
    for i, l in enumerate(word):
        if l in letter_rules:
            return i, 1, letter_rules[l]
        if i + 1 < len(word) and (l, word[i + 1]) in pair_rules:
            return i, 2, pair_rules[(l, word[i + 1])]
    return None


def _normalize_terms(terms, pair_rules, letter_rules):
    # `terms` holds no zero coefficients, and `_accumulate` stores none
    out = {}
    work = dict(terms)
    while work:
        w = min(work)
        c = work.pop(w)
        spot = _reduce_spot(w, pair_rules, letter_rules)
        if spot is None:
            _accumulate(out, w, c)
            continue
        i, span, rep = spot
        for w2, c2 in rep.terms.items():
            _accumulate(work, w[:i] + w2 + w[i + span:], c * c2)
    return out


class RewriteSystem:
    """Quadratic rules x^a x^b -> lower terms (a < b), plus optional
    generator substitutions x^a -> poly used by the quotient embeddings.

    Construction first certifies that each letter rule, and each pair rule
    after letter substitution, lowers the termination measure.  One pass
    then normalizes every right-hand side; a second could change nothing,
    as irreducibility depends only on the rule keys.  Rules are read-only
    and no attribute can be rebound."""

    __slots__ = ("N", "pair_rules", "letter_rules")

    def __init__(self, N, pair_rules, letter_rules=None):
        if not isinstance(N, int) or N < 1:
            raise BadN(f"width must be a positive integer, got {N!r}")
        object.__setattr__(self, "N", N)
        letter_rules = dict(letter_rules or {})
        for (a, b) in pair_rules:
            if not (1 <= a < b <= N):
                raise ValueError(f"pair rule key must satisfy 1 <= a < b <= N: {(a, b)}")
        for a in letter_rules:
            if not (1 <= a <= N):
                raise ValueError(f"letter rule key out of range: {a}")
        _certify({(a,): rhs for a, rhs in letter_rules.items()}, letter_rules)
        pair_rules = {key: NCPoly._of(_normalize_terms(rhs.terms, {}, letter_rules))
                      for key, rhs in pair_rules.items()}
        _certify(pair_rules, letter_rules)
        for rules in (pair_rules, letter_rules):
            for key, rhs in rules.items():
                rules[key] = NCPoly._of(_normalize_terms(rhs.terms, pair_rules,
                                                         letter_rules))
        object.__setattr__(self, "pair_rules", MappingProxyType(pair_rules))
        object.__setattr__(self, "letter_rules", MappingProxyType(letter_rules))

    def __setattr__(self, name, value):
        raise AttributeError(f"RewriteSystem is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RewriteSystem is immutable: cannot delete {name!r}")

    def __repr__(self):
        return (f"<RewriteSystem N={self.N} rules={len(self.pair_rules)}"
                f"+{len(self.letter_rules)}>")


def normal_form(p, rs):
    """Rewrite p to its normal form (leftmost redex first).  Terminates
    without a step count: construction certified that every rule lowers the
    termination measure, so every rewriting sequence stops."""
    for w in p.terms:
        if any(l < 1 or l > rs.N for l in w):
            raise ValueError(f"word {w} uses letters outside 1..{rs.N}")
    return NCPoly._of(_normalize_terms(p.terms, rs.pair_rules, rs.letter_rules))


def plane_relations(shape):
    """Rewrite rules of the N-generator quantum orthogonal plane, one per
    increasing pair, from the reduced rows of P_A's row space.

    `shape.pa_rows` is already P_A's reduced basis.  Its rows are reduced
    again here with the increasing pairs as the first columns: a basis
    row is zero at the other pivots and its pivot is its lowest column in
    this order too, so that takes no elimination step.  It still checks
    that the pivots are the increasing pairs, and raises RankMismatch if
    they are not."""
    N, rowspace = shape.N, shape.pa_rows
    inc = [(a, b) for a in range(1, N + 1) for b in range(a + 1, N + 1)]
    rest = [(a, b) for a in range(1, N + 1) for b in range(1, a + 1)]
    cols = inc + rest
    colpos = {pair: k for k, pair in enumerate(cols)}

    rows = {}
    for (r, c), v in rowspace.entries.items():
        rows.setdefault(r, {})[colpos[unpack(c, N, 2)]] = v
    basis = row_reduce([rows[r] for r in sorted(rows)])
    pivots = {cols[piv] for piv, _, _ in basis}
    if pivots != set(inc):
        raise RankMismatch(f"P_A pivots {sorted(pivots)} are not the "
                           f"increasing pairs for N={N}")
    rules = {}
    for piv, vec, _ in basis:
        rhs = NCPoly({cols[k]: -v for k, v in vec.items() if k != piv})
        rules[cols[piv]] = rhs
    return RewriteSystem(N, rules)


def _ambiguities(rs):
    """(witness stub, reduct, reduct) for each ambiguity: the overlaps
    x^a x^b x^c of two pair rules, then each letter rule inside the left
    word of a pair rule."""
    for (a, b), rhs_ab in sorted(rs.pair_rules.items()):
        for c in range(b + 1, rs.N + 1):
            rhs_bc = rs.pair_rules.get((b, c))
            if rhs_bc is None:
                continue
            yield {"overlap": [a, b, c]}, rhs_ab * NCPoly.gen(c), NCPoly.gen(a) * rhs_bc
    for (a, b), rhs_ab in sorted(rs.pair_rules.items()):
        for pos, l in enumerate((a, b)):
            sub = rs.letter_rules.get(l)
            if sub is None:
                continue
            one_step = (sub * NCPoly.gen(b)) if pos == 0 else (NCPoly.gen(a) * sub)
            yield {"overlap": [a, b], "letter": l}, one_step, rhs_ab


def check_confluence(rs):
    """Diamond lemma on overlaps.  For words x^a x^b x^c with both (a,b)
    and (b,c) rules, the two one-step reducts must share a normal form;
    generator substitutions overlapping a pair rule are checked the same
    way.  Returns (True, None) or (False, witness)."""
    for stub, left, right in _ambiguities(rs):
        left = normal_form(left, rs)
        right = normal_form(right, rs)
        if left != right:
            return False, dict(stub, left=str(left), right=str(right))
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
    are conjugated, generators mapped through K, word order reversed."""
    images = {a: NCPoly({(b,): K.get(a, b) for b in range(1, K.dim + 1)})
              for a in range(1, K.dim + 1)}
    return _substitute({w[::-1]: c.bar(regime) for w, c in p.terms.items()},
                       images)


def check_star_consistency(rs, K, regime):
    """The conjugation must be an involution on generators and must map
    every defining relation into the relation ideal (normal form zero)."""
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

    The substitution is y1 -> x1, y2 -> t*x2 (i*t*x2 for the minus sign),
    y3 -> x4, with t = sqrt(q^(1/2) + q^(-1/2)); every three-generator
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
    base = plane_relations(GroupShape(4))
    sub = NCPoly({(2,): Scalar.from_frac(sign)})
    ext = RewriteSystem(4, base.pair_rules, {3: sub})
    ok, _ = check_confluence(ext)
    if not ok:
        return False
    unit = Scalar.i_unit() if sign == -1 else Scalar.one()
    images = {1: NCPoly.gen(1), 2: NCPoly({(2,): unit}), 3: NCPoly.gen(4)}
    for (a, b), rhs in plane_relations(GroupShape(3)).pair_rules.items():
        parts = ({}, {})  # the t^0 and t^1 parts of the relation
        for w, c in (NCPoly.word((a, b)) - rhs).terms.items():
            m = w.count(2) if include_scaling else 0
            for _ in range(m // 2):
                c = c * _T_SQUARED
            parts[m % 2][w] = c
        for part in parts:
            if not normal_form(_substitute(part, images), ext).is_zero():
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
