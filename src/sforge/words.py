"""Steinberg words over an idempotent family, with exact evaluation.

A word is a finite sequence of letters x_ij(a) with a in the Peirce
component R_ij of the family.  A letter's payload a is its block values:
the tuple of its |block i| * |block j| entries at fam.cells(i, j), row by
row, never an n x n matrix.  Letters are evaluated, inverted, conjugated
and multiplied on those values; matrices appear only as st images and
on the wire.  A DiagonalElement is likewise the block values of its
corner units, with their inverses computed once, on construction.
One kernel, MatrixAlgebra.fold_columns in sforge.rings, folds a whole
word's letters onto a column buffer (over Z/m one packed int per
column), reading each letter's cells from the family's cell_table; it
is the one column update for the plain product and the homotope fold.
st_eval folds onto the identity's buffer and reads the matrix off it.
A relation instance lhs = rhs is decided as one word, its relator
lhs * rhs^-1 (_relator, the one construction of relation words, from
letters valid as drawn, each paired with its negation): the instance
holds exactly when st sends the relator to the identity, which is
tested on one column buffer, compared with the identity's by ==, with
no matrix read off it.  The sampler and the exhaustive grid are its
only callers.  Every relator begins with its first payload's letter x,
so the grid folds the columns of st(x) once and shares them, copied
shallowly, across every second payload; it also builds each component
element's letter once per index tuple.

On the wire a letter's "a" is its n x n matrix.  Formal inverses are
normalized away on input: x_ij(a)^{-1} = x_ij(-a) holds in every
context, so letters carry no exponent internally.

Contexts:

    plain            st sends x_ij(a) to the transvection 1 + a in GL(R)
    homotope(scale)  st folds payloads with x o y = scale*x*y + x + y,
                     landing in the quasi-invertible elements at that scale

Equality in the Steinberg group is decided exactly on one triangle
only.  st is injective on U+ and on U- (Milnor, Introduction to
Algebraic K-Theory, 1971), and the normal form of a supported word is a
function of its st image and its triangle, so two words that each lie
in U+ or in U- (support_sign is not None) are equal exactly when their
st images agree; no normal form need be computed for it.  Elsewhere
equal st images are necessary only.
"""

from __future__ import annotations

from collections import namedtuple

from .peirce import IndexClash, morita_decompose
from .rings import NotInvertible, SforgeError


class NotUnipotentSupport(SforgeError):
    """Normal form requested for a word not supported on U+ or U-."""


class SideConditionViolated(SforgeError):
    """A letter's payload has the wrong number of block values for R_ij."""


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


Letter = namedtuple("Letter", "i j a")
Letter.__doc__ = "x_ij(a), with a the tuple of block values of R_ij at fam.cells(i, j)."


class Context(namedtuple("Context", "family scale level", defaults=(None, None))):
    """Where a word lives: the family plus an optional homotope scale.

    scale is None for plain words; otherwise it is the element of the
    scalar ring used by the homotope fold.  level is optional exponent
    bookkeeping used by towers (scale == s**level there).
    """

    __slots__ = ()

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
    size = len(fam.cell_table[i][j])
    if len(a) != size:
        raise SideConditionViolated(
            "payload has %d values; R_%d%d has %d cells" % (len(a), i, j, size)
        )
    return Letter(i, j, a)


def _unit_columns(ctx):
    """The column buffer of st of the empty word (MatrixAlgebra.columns):
    the identity, or zero in a homotope context."""
    alg = ctx.algebra
    return alg.columns(alg.one if ctx.scale is None else alg.zero)


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
    MatrixAlgebra.fold_columns applies that column update for every letter
    to the identity's column buffer, and st_eval reads the matrix off it
    (MatrixAlgebra.matrix): a letter costs O(n |block i| |block j|) ring
    operations, not the O(n^3) of a matrix product; over Z/m each of its
    |block i| |block j| column updates is one big-int multiply-add on a
    packed column.
    """
    ctx = w.context
    fam = ctx.family
    alg = fam.algebra
    return alg.matrix(alg.fold_columns(_unit_columns(ctx), fam.cell_table, w.letters, ctx.scale))


def _folds_to_unit(ctx, letters, cols=None, unit=None):
    """Does st send the letters, folded onto a copy of cols, to the identity?

    cols defaults to the identity's columns (zero in a homotope context)
    and unit, the columns compared with, to _unit_columns(ctx); callers
    that test many words pass unit once.  No matrix is read off the
    buffer: its canonical columns compare with ==, each one int over Z/m.
    The copy is shallow: MatrixAlgebra.fold_columns replaces a column and
    never changes one, so cols is left as it was, and every column no
    letter touched is still unit's own object.
    """
    if unit is None:
        unit = _unit_columns(ctx)
    fam = ctx.family
    buf = (unit if cols is None else cols)[:]
    return fam.algebra.fold_columns(buf, fam.cell_table, letters, ctx.scale) == unit


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
    payload a in R_ij replaces the residual r by (1 - a) r = r - a r, one
    n x n product per letter: it is the dense reference, sharing no
    kernel with the column folds.

    No check runs it: on one triangle the normal form is a function of
    the st image, so one triangle test and one st comparison decide what
    comparing normal forms would.  It is kept as the tests' oracle for
    that, and because perfbench's tracer wraps it (words.u_normal_form).
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
    r = st_eval(w)
    out = []
    for (i, j) in _position_order(fam, sign):
        a = fam.project(r, i, j)
        if not fam.is_zero(a):
            out.append(Letter(i, j, a))
            r = alg.sub(r, alg.mul(fam.to_matrix(a, i, j), r))
    if r != alg.one:
        raise SforgeError("unipotent extraction failed; support was not unipotent")
    return Word(w.context, tuple(out))


def _signed(fam, i, j, a):
    """(x_ij(a), x_ij(-a)) for the block values a of R_ij, unvalidated."""
    return Letter(i, j, a), Letter(i, j, tuple(map(fam.algebra.base.neg, a)))


def _relator(ctx, kind, first, second, fault=None):
    """The letters of lhs * rhs^-1 for one relation instance; it begins with x.

    first and second are the signed letters (x, x^-1) and (y, y^-1) of the
    two payloads a and b (_signed), valid as drawn: the index tuples of
    relation_index_tuples and random_relation_indices meet the side
    conditions, and component_elements and sample_component give one
    value per cell.  The instance holds exactly when st sends the relator
    to the identity: st is a monoid map, and st(x_ij(-a)) is the inverse
    of st(x_ij(a)) because a^2 = 0 for i != j (in a homotope,
    a o (-a) = -s a^2 = 0):

        St1  x_ij(a) x_ij(b) x_ij(-(a+b))
        St2  x y x^-1 y^-1                 (the right side is empty)
        St3  x y x^-1 y^-1 x_ik(s (-a) b)  (s only in a homotope context)

    fault corrupts the (St3) right side, as sample_relations describes:
    "st3-zero" drops the last letter (an empty right side), "drop-scale"
    leaves s off it.
    """
    (x, x_neg), (y, y_neg) = first, second
    base = ctx.algebra.base
    if kind == "St1":
        return x, y, Letter(x.i, x.j, tuple(map(base.add, x_neg.a, y_neg.a)))
    if kind == "St2" or fault == "st3-zero":
        return x, y, x_neg, y_neg
    c = ctx.family.block_mul(x_neg.a, x.i, x.j, y.a, y.j)
    if ctx.scale is not None and fault != "drop-scale":
        c = tuple([base.mul(ctx.scale, v) for v in c])
    return x, y, x_neg, y_neg, Letter(x.i, y.j, c)


class DiagonalElement:
    """An invertible diagonal element (u_1, ..., u_n), u_t a unit of e_t R e_t.

    blocks holds the block values of each u_t on R_tt, and inverse_blocks
    those of each u_t^-1, which is what acting on letters needs.  Both are
    fixed on construction: a corner is a unit exactly when it inverts, so
    each is eliminated once, and one that does not invert raises
    NonInvertibleComponent.
    """

    __slots__ = ("family", "blocks", "inverse_blocks")

    def __init__(self, family, blocks):
        blocks = tuple(map(tuple, blocks))
        if len(blocks) != family.n:
            raise NonInvertibleComponent("need one component per block")
        inverse = []
        for t, u in enumerate(blocks, start=1):
            if len(u) != len(family.cells(t, t)):
                raise NonInvertibleComponent("component %d not in its corner" % t)
            try:
                inverse.append(family.corner_inv(u, t))
            except NotInvertible:
                raise NonInvertibleComponent("component %d not a corner unit" % t) from None
        self.family = family
        self.blocks = blocks
        self.inverse_blocks = tuple(inverse)

    @classmethod
    def identity(cls, family):
        return cls(family, [family.project(family.algebra.one, t, t) for t in family.labels()])

    def embed(self):
        """The n x n matrix u_1 + ... + u_n."""
        fam = self.family
        out = fam.algebra.zero
        for t, u in enumerate(self.blocks, start=1):
            out = fam.write(out, u, t, t)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, DiagonalElement)
            and other.family == self.family
            and other.blocks == self.blocks
        )

    def __hash__(self):
        return hash((self.family, self.blocks))


def diag_act(d, w):
    """Conjugation action of a diagonal element: x_ij(a) -> x_ij(u_i a u_j^{-1}).

    u_i a u_j^{-1} is the product of the i-corner block of u_i, the
    letter's block values and the j-corner block of u_j^{-1}:
    O(|block i| |block j| (|block i| + |block j|)) ring operations.
    """
    fam = w.context.family
    if d.family != fam:
        raise SforgeError("diagonal element belongs to a different family")
    us, vs = d.blocks, d.inverse_blocks
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


def split_letters(fam, a, I, J):
    """The nonzero letters x_ij(e_i a e_j), for i in I, then j in J.

    a holds the block values of R_IJ, for tuples of labels I and J; each
    letter keeps the values on the cells of its own (i, j).  This is the
    one place block values are cut into letters.
    """
    out = []
    for i in I:
        for j in J:
            v = fam.restrict(a, I, J, i, j)
            if not fam.is_zero(v):
                out.append(Letter(i, j, v))
    return out


def f_alpha(w, ref):
    """Push a word over the coarse family to the fine family.

    Untouched letters keep their payload; a letter into (out of) the merged
    class splits into one letter per fine label, through split_letters
    over the two classes.  Zero cuts are dropped.
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
        else:
            out.extend(split_letters(fine, L.a, fi, fj))
    return Word(ctx_fine, tuple(out))


def g_alpha(w, ref):
    """Push a word over the fine family down to the coarse (merged) family.

    Letters not touching both merged labels map to their coarse classes
    with the same payload.  A letter between the merged labels is first
    replaced by the letters of express_as_commutators at the smallest
    outside label, which then map the same way.  Splitting is a group
    inverse to this map when the fine family has at least 4 blocks.
    """
    require_blocks(ref.fine, 4, "the merge map")
    if w.context.family != ref.fine:
        raise SforgeError("word does not live over the fine family")
    ctx_coarse = Context(ref.coarse, w.context.scale, w.context.level)
    lm = ref.label_map
    out = []
    for L in w.letters:
        if lm[L.i] == lm[L.j]:
            letters = express_as_commutators(w.context, L.i, L.j, L.a).letters
        else:
            letters = (L,)
        for x in letters:
            out.append(Letter(lm[x.i], lm[x.j], ref.extend(x.a, x.i, x.j)))
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
    and counted; the rest are verified exhaustively.  Each component
    element's letter is built once per tuple, not once per pair.  Every
    relator begins with x (_relator), so the columns of st(x) are folded
    once per first payload, and each second payload y folds the rest of
    its relator onto a shallow copy of them: MatrixAlgebra.fold_columns
    never changes a column in place, so the shared columns stay those of
    st(x).
    """
    fam = ctx.family
    fold, table, s = fam.algebra.fold_columns, fam.cell_table, ctx.scale
    unit = _unit_columns(ctx)
    checked = bad = skipped = 0
    for i, j, k, l in relation_index_tuples(fam, kind):
        second = _second_component(kind, i, j, k, l)
        if fam.component_size(i, j) > cap or fam.component_size(*second) > cap:
            skipped += 1
            continue
        firsts = [_signed(fam, i, j, a) for a in fam.component_elements(i, j)]
        seconds = [_signed(fam, *second, b) for b in fam.component_elements(*second)]
        for x in firsts:
            pre = fold(unit[:], table, (x[0],), s)
            for y in seconds:
                bad += not _folds_to_unit(ctx, _relator(ctx, kind, x, y)[1:], pre, unit)
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
    component _second_component names, and holds when st sends its
    relator (_relator) to the identity.  The draws need no validation:
    random_relation_indices returns only tuples past the side conditions,
    and sample_component draws one value per cell, so the signed letters
    are built from them directly and the relator is folded onto a shallow
    copy of the unit's columns.  fault corrupts the (St3) right side on
    purpose: "st3-zero" replaces x_ik(ab) by the empty word, "drop-scale"
    leaves the homotope scale off ab.  Returns
    {kind: {"checked", "violations"}}.
    """
    fam = ctx.family
    fold, table, s = fam.algebra.fold_columns, fam.cell_table, ctx.scale
    unit = _unit_columns(ctx)
    out = {}
    for kind in kinds:
        bad = 0
        for _ in range(samples):
            i, j, k, l = random_relation_indices(fam, rng, kind)
            p, q = _second_component(kind, i, j, k, l)
            x = _signed(fam, i, j, fam.sample_component(i, j, rng))
            y = _signed(fam, p, q, fam.sample_component(p, q, rng))
            bad += fold(unit[:], table, _relator(ctx, kind, x, y, fault), s) != unit
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
