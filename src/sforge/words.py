"""Steinberg words over an idempotent family, with exact evaluation.

A word is a finite sequence of letters x_ij(a) with a in the Peirce
component R_ij of the family.  A letter's payload a is its block values:
the tuple of its |block i| * |block j| entries at fam.cells(i, j), row by
row, never an n x n matrix.  Letters are evaluated, inverted, conjugated
and multiplied on those values; matrices appear only as st images, as
diagonal elements, and on the wire.  st_eval hands each letter's cells
and block values to MatrixAlgebra.add_column_multiples in sforge.rings,
the one column update for the plain product and the homotope fold.
The relation checks build an instance's two sides through one path,
_relation_sides, from validated letters paired with their negations;
the exhaustive grid builds each component element's letter once per
index tuple and checks the tuple's side conditions once.

The JSON wire format is unchanged: a letter's "a" is still its n x n
matrix, and word_from_json refuses one with a nonzero entry off R_ij.
Formal inverses are normalized away on input: x_ij(a)^{-1} = x_ij(-a)
holds in every context, so letters carry no exponent internally (the
wire format still accepts "e": +-1).

Contexts:

    plain            st sends x_ij(a) to the transvection 1 + a in GL(R)
    homotope(scale)  st folds payloads with x o y = scale*x*y + x + y,
                     landing in the quasi-invertible elements at that scale

The three equality oracles, from strongest to weakest evidence:
literal/reduced word identity, normal form on a common unipotent support,
and equality of st images.  st is injective on U+ and on U- (Milnor,
Introduction to Algebraic K-Theory, 1971), and the normal form of a
supported word is a function of its st image and its triangle, so on a
common unipotent support one st comparison already decides equality in
the Steinberg group exactly; no normal form need be computed for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .peirce import IndexClash, morita_decompose
from .rings import SforgeError


class NotUnipotentSupport(SforgeError):
    """Normal form requested for a word not supported on U+ or U-."""


class SideConditionViolated(SforgeError):
    """Relation indices violate the side conditions of the relation."""


class RankTooSmall(SforgeError):
    """The operation needs more blocks than the family provides."""


class NonInvertibleComponent(SforgeError):
    """A diagonal component is not invertible in its corner ring."""


def require_blocks(fam, need, what):
    """Raise RankTooSmall unless the family has at least `need` blocks.

    Over the zero ring every idempotent is 0, so no family there has a
    nonzero block, and no word there has a nonzero letter.
    """
    if fam.algebra.one == fam.algebra.zero:
        raise RankTooSmall(
            "%s needs a nonzero ring; every block of the zero ring is 0" % what
        )
    if fam.n < need:
        raise RankTooSmall(
            "%s needs at least %d blocks; the family has %d" % (what, need, fam.n)
        )


class Letter(NamedTuple):
    """x_ij(a), with a the tuple of block values of R_ij at fam.cells(i, j)."""

    i: int
    j: int
    a: object


@dataclass(frozen=True)
class Context:
    """Where a word lives: the family plus an optional homotope scale.

    scale is None for plain words; otherwise it is the element of the
    scalar ring used by the homotope fold.  level is optional exponent
    bookkeeping used by towers (scale == s**level there).
    """

    family: object
    scale: object = None
    level: object = None

    @property
    def algebra(self):
        return self.family.algebra


class Word:
    """An immutable sequence of letters in a fixed context."""

    __slots__ = ("context", "letters")

    def __init__(self, context, letters=()):
        self.context = context
        self.letters = tuple(letters)

    def __mul__(self, other):
        if other.context is not self.context and other.context != self.context:
            raise SforgeError("cannot concatenate words from different contexts")
        return Word(self.context, self.letters + other.letters)

    def inverse(self):
        """x_ij(a)^-1 = x_ij(-a), letters reversed: each letter's block
        values are negated."""
        neg = self.context.family.algebra.base.neg
        return Word(
            self.context,
            [Letter(L.i, L.j, tuple(map(neg, L.a))) for L in reversed(self.letters)],
        )

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and other.context == self.context
            and other.letters == self.letters
        )

    def __hash__(self):
        return hash((self.context, self.letters))

    def __repr__(self):
        body = " ".join("x_%d%d" % (L.i, L.j) for L in self.letters)
        return "Word(%s)" % (body or "1")


def _check_indices(fam, i, j):
    if i == j:
        raise IndexClash("generator indices must differ")
    if not (1 <= i <= fam.n and 1 <= j <= fam.n):
        raise IndexClash("generator indices out of range")


def gen(ctx, i, j, a, e=1):
    """The one-letter word x_ij(a)^e for the block values a of R_ij.

    a must hold one value per cell of (i, j); any other count raises
    SideConditionViolated.
    """
    a = _letter(ctx.family, i, j, a).a
    if e == -1:
        a = tuple(map(ctx.algebra.base.neg, a))
    elif e != 1:
        raise ValueError("letter exponent must be +1 or -1")
    return Word(ctx, (Letter(i, j, a),))


def _letter(fam, i, j, a):
    """The validated letter x_ij(a), as gen() validates it."""
    _check_indices(fam, i, j)
    a = tuple(a)
    if len(a) != len(fam.cells(i, j)):
        raise SideConditionViolated(
            "payload has %d values; R_%d%d has %d cells" % (len(a), i, j, len(fam.cells(i, j)))
        )
    return Letter(i, j, a)


def word(ctx, items):
    """A validated word from (i, j, a) or (i, j, a, e) tuples."""
    out = Word(ctx)
    for item in items:
        out = out * gen(ctx, *item)
    return out


def commutator(w1, w2, w1_inv=None, w2_inv=None):
    """The word w1 w2 w1^-1 w2^-1.

    A caller that already holds w1^-1 or w2^-1 passes it, and that word
    is not inverted again.
    """
    w = w1 * w2
    if w1_inv is None:
        w1_inv = w1.inverse()
    if w2_inv is None:
        w2_inv = w2.inverse()
    return Word(w.context, w.letters + w1_inv.letters + w2_inv.letters)


def st_eval(w):
    """The image of the word under st.

    Plain context: the product of the transvections 1 + a in GL(R).
    Homotope context: the fold of scale*x*y + x + y over the payloads,
    a quasi-invertible element of R at that scale.

    Each payload a of a letter x_ij(a) lies in R_ij with i != j: it is
    zero off the block-i rows and block-j columns, and the two blocks are
    disjoint.  So m(1 + a) = m + ma changes only the block-j columns, by
    m[:, c] += sum over k in block i of m[:, k] a[k][c]; the homotope step
    s*acc*a + acc + a is the same update scaled by s, plus a on its cells.
    MatrixAlgebra.add_column_multiples is that column update, taking the
    letter's cells and block values as they are: a letter costs
    O(n |block i| |block j|) ring operations, not the O(n^3) of a matrix
    product.
    """
    fam = w.context.family
    alg = fam.algebra
    s = w.context.scale
    # one and zero are symmetric, so their row tuples are also their columns
    cols = list(alg.one if s is None else alg.zero)
    cells = fam.cells
    update = alg.add_column_multiples
    for L in w.letters:
        update(cols, cells(L.i, L.j), L.a, s)
    return tuple(zip(*cols))


def support_sign(w):
    """+1 for upper support, -1 for lower, 0 for empty, None for mixed."""
    is_zero = w.context.family.is_zero
    sign = 0
    for L in w.letters:
        if is_zero(L.a):
            continue
        here = 1 if L.i < L.j else -1
        if sign == 0:
            sign = here
        elif sign != here:
            return None
    return sign


def _commute_st2(L1, L2):
    return L1.j != L2.i and L1.i != L2.j


def reduce_word(w):
    """Sound, incomplete canonicalization: zero drops, same-slot merges,
    and order-normalizing swaps of provably commuting adjacent letters."""
    fam = w.context.family
    add = fam.algebra.base.add
    letters = [L for L in w.letters if not fam.is_zero(L.a)]
    t = 0
    while t + 1 < len(letters):
        L1, L2 = letters[t], letters[t + 1]
        if (L1.i, L1.j) == (L2.i, L2.j):
            s = tuple(map(add, L1.a, L2.a))
            del letters[t:t + 2]
            if not fam.is_zero(s):
                letters.insert(t, Letter(L1.i, L1.j, s))
            t = max(t - 1, 0)
        elif _commute_st2(L1, L2) and (L2.i, L2.j) < (L1.i, L1.j):
            letters[t], letters[t + 1] = L2, L1
            t = max(t - 1, 0)
        else:
            t += 1
    return Word(w.context, tuple(letters))


def _position_order(fam, sign):
    pairs = []
    for i in fam.labels():
        for j in fam.labels():
            if sign > 0 and i < j:
                pairs.append((j - i, i, (i, j)))
            elif sign < 0 and i > j:
                pairs.append((i - j, j, (i, j)))
    return [p for _, _, p in sorted(pairs)]


def u_normal_form(w):
    """The canonical ordered form of a word supported on U+ or on U-.

    Positions are filled in increasing height order; payloads are peeled
    off the exact st image, so two supported words have the same normal
    form exactly when they are equal in the Steinberg group.  Peeling a
    payload a in R_ij (i != j) multiplies the residual by 1 - a on the
    left, which changes only the block-i rows: O(n |block i| |block j|)
    ring operations per letter, as in st_eval.
    """
    if w.context.scale is not None:
        raise SforgeError("normal form is defined for plain contexts")
    fam = w.context.family
    alg = w.context.algebra
    sign = support_sign(w)
    if sign is None:
        raise NotUnipotentSupport("word mixes upper and lower letters")
    if sign == 0:
        return Word(w.context)
    neg = alg.base.neg
    rows = list(st_eval(w))
    out = []
    for (i, j) in _position_order(fam, sign):
        a = fam.project(rows, i, j)
        if not fam.is_zero(a):
            out.append(Letter(i, j, a))
            # (1 - a) * residual: a row update on the block-i rows
            alg.add_row_multiples(rows, fam.cells(i, j), map(neg, a))
    if tuple(map(tuple, rows)) != alg.one:
        raise SforgeError("unipotent extraction failed; support was not unipotent")
    return Word(w.context, tuple(out))


def _common_support(w1, w2):
    """Do two plain words lie in one of U+ and U-?  An empty support fits
    either triangle."""
    if w1.context.scale is not None:
        return False
    s1, s2 = support_sign(w1), support_sign(w2)
    return s1 is not None and s2 is not None and (s1 == s2 or 0 in (s1, s2))


def equal_words(w1, w2):
    """(verdict, oracle): graded equality check between two words.

    Tries reduced-word identity, then st-image equality.  On a common
    unipotent support of a plain context that comparison is graded
    "normal-form": st is injective on U+ and on U-, and the normal form is
    a function of the st image there, so the two words have equal normal
    forms exactly when their images agree.  Elsewhere equal images are
    necessary only, graded "st".
    """
    if reduce_word(w1) == reduce_word(w2):
        return True, "word"
    oracle = "normal-form" if _common_support(w1, w2) else "st"
    return st_eval(w1) == st_eval(w2), oracle


class RelationCheck(NamedTuple):
    ok: bool
    oracle: str
    relation: str


def check_relation_instance(ctx, kind, i, j, k=None, l=None, a=None, b=None):
    """Check one instance of (St1), (St2) or (St3) under st.

    a and b are block values.  The (St3) right side x_ik(ab) takes the
    block product of a and b, scaled by the context scale in a homotope
    context.  A holding plain instance whose two sides share a unipotent
    support is graded "st+normal-form": st is injective on U+ and on U-,
    so there the st comparison is exact, and it agrees with comparing the
    two normal forms, which are functions of the st images.  Otherwise
    the grade is "st".
    """
    lhs, rhs = _instance_sides(ctx, kind, i, j, k, l, a, b)
    ok = st_eval(lhs) == st_eval(rhs)
    oracle = "st+normal-form" if ok and _common_support(lhs, rhs) else "st"
    return RelationCheck(ok, oracle, kind)


def _check_side_conditions(kind, i, j, k, l):
    """Raise unless (i, j, k, l) meets the side conditions of the relation."""
    if kind == "St2":
        if j == k or i == l:
            raise SideConditionViolated("St2 requires j != k and i != l")
    elif kind == "St3":
        if i == k:
            raise SideConditionViolated("St3 requires distinct outer indices")
    elif kind != "St1":
        raise ValueError("unknown relation %r" % (kind,))


def _signed_letter(fam, i, j, a):
    """(x_ij(a), x_ij(-a)), validated as gen() validates x_ij(a)."""
    x = _letter(fam, i, j, a)
    return x, Letter(i, j, tuple(map(fam.algebra.base.neg, x.a)))


def _instance_sides(ctx, kind, i, j, k, l, a, b, fault=None):
    """The two words of one relation instance, from its indices and block
    values, after checking its side conditions."""
    _check_side_conditions(kind, i, j, k, l)
    if a is None or b is None:
        raise SideConditionViolated("%s needs two payloads" % kind)
    fam = ctx.family
    x = _signed_letter(fam, i, j, a)
    y = _signed_letter(fam, *_second_component(kind, i, j, k, l), b)
    return _relation_sides(ctx, kind, x, y, fault)


def _relation_sides(ctx, kind, first, second, fault=None):
    """(left word, right word) of one relation instance.

    first and second are the signed letters (letter, its negation) of the
    two payloads, validated and past the side conditions.  fault corrupts
    the (St3) right side, as sample_relations describes.
    """
    (x, x_neg), (y, y_neg) = first, second
    base = ctx.algebra.base
    if kind == "St1":
        return Word(ctx, (x, y)), Word(ctx, (Letter(x.i, x.j, tuple(map(base.add, x.a, y.a))),))
    lhs = Word(ctx, (x, y, x_neg, y_neg))
    if kind == "St2" or fault == "st3-zero":
        return lhs, Word(ctx)
    c = ctx.family.block_mul(x.a, x.i, x.j, y.a, y.j)
    if ctx.scale is not None and fault != "drop-scale":
        c = tuple([base.scalar_mul(ctx.scale, v) for v in c])
    return lhs, Word(ctx, (Letter(x.i, y.j, c),))


class DiagonalElement:
    """An invertible diagonal element (u_1, ..., u_n), u_i a unit of e_i R e_i.

    The components are n x n matrices, as GL-side values; blocks() and
    inverse_blocks() give the block values of each u_t and u_t^-1 on R_tt,
    which is what acting on letters needs.
    """

    __slots__ = ("family", "components", "_blocks", "_inv_blocks")

    def __init__(self, family, components, validate=True):
        components = tuple(components)
        if len(components) != family.n:
            raise NonInvertibleComponent("need one component per block")
        self.family = family
        self.components = components
        self._blocks = self._inv_blocks = None
        if validate:
            for t, (u, b) in enumerate(zip(components, self.blocks()), start=1):
                if not family.contains(u, t, t):
                    raise NonInvertibleComponent("component %d not in its corner" % t)
                if not family.corner_is_unit(b, t):
                    raise NonInvertibleComponent("component %d not a corner unit" % t)

    @classmethod
    def identity(cls, family):
        return cls(family, [family.idempotent(t) for t in family.labels()], validate=False)

    @classmethod
    def one_slot(cls, family, i, u):
        """d_i(u): the identity with slot i replaced by u."""
        comps = [family.idempotent(t) for t in family.labels()]
        comps[i - 1] = u
        return cls(family, comps)

    def embed(self):
        alg = self.family.algebra
        acc = alg.zero
        for u in self.components:
            acc = alg.add(acc, u)
        return acc

    def blocks(self):
        """The block values of each u_t on R_tt."""
        if self._blocks is None:
            fam = self.family
            self._blocks = tuple(
                fam.project(u, t, t) for t, u in enumerate(self.components, start=1)
            )
        return self._blocks

    def inverse_blocks(self):
        """The block values of each corner inverse u_t^-1 on R_tt."""
        if self._inv_blocks is None:
            fam = self.family
            self._inv_blocks = tuple(
                fam.corner_inv(b, t) for t, b in enumerate(self.blocks(), start=1)
            )
        return self._inv_blocks

    def mul(self, other):
        alg = self.family.algebra
        return DiagonalElement(
            self.family,
            [alg.mul(a, b) for a, b in zip(self.components, other.components)],
            validate=False,
        )

    def inverse(self):
        fam = self.family
        comps = [fam.to_matrix(v, t, t) for t, v in enumerate(self.inverse_blocks(), start=1)]
        return DiagonalElement(fam, comps, validate=False)

    def __eq__(self, other):
        return (
            isinstance(other, DiagonalElement)
            and other.family == self.family
            and other.components == self.components
        )

    def __hash__(self):
        return hash((self.family, self.components))


def diag_act(d, w):
    """Conjugation action of a diagonal element: x_ij(a) -> x_ij(u_i a u_j^{-1}).

    u_i a u_j^{-1} is the product of the i-corner block of u_i, the
    letter's block values and the j-corner block of u_j^{-1}:
    O(|block i| |block j| (|block i| + |block j|)) ring operations.
    """
    fam = w.context.family
    if d.family != fam:
        raise SforgeError("diagonal element belongs to a different family")
    us = d.blocks()
    vs = d.inverse_blocks()
    mul = fam.block_mul
    out = tuple(
        Letter(
            L.i,
            L.j,
            mul(mul(us[L.i - 1], L.i, L.i, L.a, L.j), L.i, L.j, vs[L.j - 1], L.j),
        )
        for L in w.letters
    )
    return Word(w.context, out)


def f_alpha(w, ref):
    """Push a word over the coarse family to the fine family.

    Untouched letters keep their payload; a letter into (out of) the merged
    class splits into one letter per fine label, cutting the payload with
    the fine idempotent on the appropriate side, which keeps the values on
    that label's cells.  Zero cuts are dropped.
    """
    fine = ref.fine
    ctx_fine = Context(fine, w.context.scale, w.context.level)
    if w.context.family != ref.coarse:
        raise SforgeError("word does not live over the coarse family")
    out = []
    for L in w.letters:
        fi = ref.fine_of[L.i]
        fj = ref.fine_of[L.j]
        if len(fi) == 1 and len(fj) == 1:
            out.append(Letter(fi[0], fj[0], L.a))
            continue
        # one side is the merged class, the other a single label
        for p in fi:
            for q in fj:
                cut = ref.restrict(L.a, p, q)
                if not fine.is_zero(cut):
                    out.append(Letter(p, q, cut))
    return Word(ctx_fine, tuple(out))


def g_alpha(w, ref, epi_only=False):
    """Push a word over the fine family down to the coarse (merged) family.

    Letters not touching both merged labels map to their coarse classes
    with the same payload.  A letter between the merged labels expands,
    through Morita witnesses at the smallest outside label, into a product
    of commutators of off-diagonal letters.  Splitting is a group inverse
    to this map when the fine family has at least 4 blocks.
    """
    require_blocks(ref.fine, 3 if epi_only else 4, "the merge map")
    if w.context.family != ref.fine:
        raise SforgeError("word does not live over the fine family")
    neg = ref.fine.algebra.base.neg
    ctx_coarse = Context(ref.coarse, w.context.scale, w.context.level)
    p, q = ref.fine_pair
    lm = ref.label_map
    aux = min(t for t in ref.fine.labels() if t not in (p, q))
    out = []
    for L in w.letters:
        I, J = lm[L.i], lm[L.j]
        if I != J:
            out.append(Letter(I, J, ref.extend(L.a, L.i, L.j)))
            continue
        AUX = lm[aux]
        for x, y in morita_decompose(ref.fine, L.a, L.i, aux, L.j):
            x = ref.extend(x, L.i, aux)
            y = ref.extend(y, aux, L.j)
            out.extend(
                (
                    Letter(I, AUX, x),
                    Letter(AUX, J, y),
                    Letter(I, AUX, tuple(map(neg, x))),
                    Letter(AUX, J, tuple(map(neg, y))),
                )
            )
    return Word(ctx_coarse, tuple(out))


def express_as_commutators(ctx, i, k, c, j=None):
    """A word of commutators [x_ij(a_p), x_jk(b_p)] whose st image is 1 + c.

    c is the block values of R_ik.  The pairs come from the Morita
    witnesses for (i, j).  c = 0 yields the empty word; j defaults to the
    smallest label distinct from i and k.
    """
    fam = ctx.family
    require_blocks(fam, 3, "a commutator expression")
    if i == k:
        raise IndexClash("endpoints must differ")
    if j is None:
        j = min(t for t in fam.labels() if t not in (i, k))
    if j in (i, k):
        raise IndexClash("auxiliary index must differ from both endpoints")
    neg = fam.algebra.base.neg
    out = []
    for a, b in morita_decompose(fam, c, i, j, k):
        out.extend(
            (
                Letter(i, j, a),
                Letter(j, k, b),
                Letter(i, j, tuple(map(neg, a))),
                Letter(j, k, tuple(map(neg, b))),
            )
        )
    return Word(ctx, tuple(out))


def word_to_json(w):
    """The wire form of a word; each letter's "a" is its n x n matrix."""
    fam = w.context.family
    alg = w.context.algebra
    head = {
        "family": w.context.family.to_json(),
        "ring": alg.to_json(),
        "system": "plain" if w.context.scale is None else "homotope",
    }
    if w.context.scale is not None:
        head["scale"] = alg.base.element_to_json(w.context.scale)
    if w.context.level is not None:
        head["level"] = w.context.level
    return {
        "context": head,
        "letters": [
            {"a": alg.element_to_json(fam.to_matrix(L.a, L.i, L.j)), "e": 1, "i": L.i, "j": L.j}
            for L in w.letters
        ],
    }


def relation_index_tuples(fam, kind):
    """All valid index tuples (i, j, k, l) for the given relation."""
    labels = list(fam.labels())
    if kind == "St1":
        return [(i, j, None, None) for i in labels for j in labels if i != j]
    if kind == "St2":
        return [
            (i, j, k, l)
            for i in labels
            for j in labels
            for k in labels
            for l in labels
            if i != j and k != l and j != k and i != l
        ]
    if kind == "St3":
        return [
            (i, j, k, None)
            for i in labels
            for j in labels
            for k in labels
            if len({i, j, k}) == 3
        ]
    raise ValueError("unknown relation %r" % (kind,))


def exhaustive_relation_grid(ctx, kind, cap=256):
    """Check a relation for every payload pair over every valid index tuple.

    Index tuples whose payload components exceed cap elements are skipped
    and counted; the rest are verified exhaustively.  Each tuple's side
    conditions are checked once, and each component element's letter is
    built once per tuple, not once per pair.
    """
    fam = ctx.family
    checked = bad = skipped = 0
    for i, j, k, l in relation_index_tuples(fam, kind):
        second = _second_component(kind, i, j, k, l)
        if fam.component_size(i, j) > cap or fam.component_size(*second) > cap:
            skipped += 1
            continue
        _check_side_conditions(kind, i, j, k, l)
        firsts = [_signed_letter(fam, i, j, a) for a in fam.component_elements(i, j)]
        seconds = [_signed_letter(fam, *second, b) for b in fam.component_elements(*second)]
        for x in firsts:
            for y in seconds:
                lhs, rhs = _relation_sides(ctx, kind, x, y)
                bad += st_eval(lhs) != st_eval(rhs)
        checked += len(firsts) * len(seconds)
    return {"checked": checked, "violations": bad, "tuples_skipped": skipped}


def _second_component(kind, i, j, k, l):
    """The component (row, col) of the second payload b of a relation."""
    if kind == "St1":
        return i, j
    if kind == "St2":
        return k, l
    return j, k


def sample_relations(ctx, rng, kinds, samples, fault=None):
    """Check `samples` random instances of each relation in kinds, in order.

    Each instance draws its index tuple, then a in R_ij, then b from the
    component _second_component names.  fault corrupts the (St3) right
    side on purpose, and the commutator is compared with it under st:
    "st3-zero" replaces x_ik(ab) by the empty word, "drop-scale" leaves
    the homotope scale off ab.  Returns {kind: {"checked", "violations"}}.
    """
    fam = ctx.family
    out = {}
    for kind in kinds:
        bad = 0
        for _ in range(samples):
            i, j, k, l = random_relation_indices(fam, rng, kind)
            a = fam.sample_component(i, j, rng)
            b = fam.sample_component(*_second_component(kind, i, j, k, l), rng)
            lhs, rhs = _instance_sides(ctx, kind, i, j, k, l, a, b, fault)
            bad += st_eval(lhs) != st_eval(rhs)
        out[kind] = {"checked": samples, "violations": bad}
    return out


def random_relation_indices(fam, rng, kind):
    """A valid random index tuple (i, j, k, l) for the given relation."""
    labels = list(fam.labels())
    if kind == "St1":
        i, j = rng.sample(labels, 2)
        return i, j, None, None
    if kind == "St2":
        while True:
            i, j = rng.sample(labels, 2)
            k, l = rng.sample(labels, 2)
            if j != k and i != l:
                return i, j, k, l
    if kind == "St3":
        i, j, k = rng.sample(labels, 3)
        return i, j, k, None
    raise ValueError("unknown relation %r" % (kind,))


def random_word(ctx, rng, length, sign=None, avoid=()):
    """A random word with nonzero payloads; sign +1/-1 restricts to U+/U-.

    No letter sits on a (row, col) label pair in avoid; the tower passes
    the opposite roots of its acting generators, so that they stay out of
    the whole orbit and chained actions compare exactly.
    """
    fam = ctx.family
    labels = list(fam.labels())
    letters = []
    while len(letters) < length:
        i, j = rng.sample(labels, 2)
        if sign is not None and (i < j) != (sign > 0):
            i, j = j, i
        if (i, j) in avoid:
            continue
        a = fam.sample_component(i, j, rng)
        if not fam.is_zero(a):
            letters.append(Letter(i, j, a))
    return Word(ctx, tuple(letters))


def word_from_json(ctx, obj):
    """A validated word from its wire form.  Each letter's "a" is an n x n
    matrix, which must be zero off R_ij; its block values become the
    payload.  Any other shape, or a nonzero entry off R_ij, raises
    SideConditionViolated."""
    fam = ctx.family
    alg = ctx.algebra
    n = alg.n
    out = Word(ctx)
    for item in obj["letters"]:
        i, j = item["i"], item["j"]
        _check_indices(fam, i, j)
        rows = item["a"]
        if not (
            isinstance(rows, list)
            and len(rows) == n
            and all(isinstance(row, list) and len(row) == n for row in rows)
        ):
            raise SideConditionViolated("payload is not a %d x %d matrix" % (n, n))
        a = alg.element_from_json(rows)
        if not fam.contains(a, i, j):
            raise SideConditionViolated("payload not in the declared Peirce component")
        out = out * gen(ctx, i, j, fam.project(a, i, j), item.get("e", 1))
    return out
