"""Steinberg words over an idempotent family, with exact evaluation.

A word is a finite sequence of letters x_ij(a) with a in the Peirce
component R_ij of the family.  Formal inverses are normalized away on
input: x_ij(a)^{-1} = x_ij(-a) holds in every context, so letters carry
no exponent internally (the wire format still accepts "e": +-1).

Contexts:

    plain            st sends x_ij(a) to the transvection 1 + a in GL(R)
    homotope(scale)  st folds payloads with x o y = scale*x*y + x + y,
                     landing in the quasi-invertible elements at that scale

The three equality oracles, from strongest to weakest evidence:
literal/reduced word identity, normal form on a common unipotent support
(exact, since st is injective there), and equality of st images.
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
        if self.context != other.context:
            raise SforgeError("cannot concatenate words from different contexts")
        return Word(self.context, self.letters + other.letters)

    def inverse(self):
        alg = self.context.algebra
        return Word(
            self.context,
            tuple(Letter(L.i, L.j, alg.neg(L.a)) for L in reversed(self.letters)),
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


def gen(ctx, i, j, a, e=1):
    """The one-letter word x_ij(a)^e, validated against the family."""
    fam = ctx.family
    if i == j:
        raise IndexClash("generator indices must differ")
    if not (1 <= i <= fam.n and 1 <= j <= fam.n):
        raise IndexClash("generator indices out of range")
    if not fam.contains(a, i, j):
        raise SideConditionViolated("payload not in the declared Peirce component")
    if e == -1:
        a = ctx.algebra.neg(a)
    elif e != 1:
        raise ValueError("letter exponent must be +1 or -1")
    return Word(ctx, (Letter(i, j, a),))


def word(ctx, items):
    """A validated word from (i, j, a) or (i, j, a, e) tuples."""
    out = Word(ctx)
    for item in items:
        out = out * gen(ctx, *item)
    return out


def commutator(w1, w2):
    return w1 * w2 * w1.inverse() * w2.inverse()


def _entries(fam, L):
    """The nonzero entries (r, c, a[r][c]) of a letter's payload a."""
    a = L.a
    zero = fam.algebra.base.zero
    return [(r, c, a[r][c]) for r, c in fam.cells(L.i, L.j) if a[r][c] != zero]


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
    A letter costs O(n |block i| |block j|) ring operations, not the
    O(n^3) of a matrix product.
    """
    fam = w.context.family
    alg = fam.algebra
    base = alg.base
    s = w.context.scale
    # columns of the running value; one and zero are their own transposes
    cols = [list(col) for col in (alg.one if s is None else alg.zero)]
    for L in w.letters:
        ops = _entries(fam, L)
        if s is None:
            alg.add_column_multiples(cols, ops)
        else:
            scaled = [(k, c, base.scalar_mul(s, v)) for k, c, v in ops]
            alg.add_column_multiples(cols, scaled)
            for k, c, v in ops:
                cols[c][k] = base.add(cols[c][k], v)
    return tuple(zip(*cols))


def support_sign(w):
    """+1 for upper support, -1 for lower, 0 for empty, None for mixed."""
    alg = w.context.algebra
    sign = 0
    for L in w.letters:
        if L.a == alg.zero:
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
    alg = w.context.algebra
    letters = [L for L in w.letters if L.a != alg.zero]
    t = 0
    while t + 1 < len(letters):
        L1, L2 = letters[t], letters[t + 1]
        if (L1.i, L1.j) == (L2.i, L2.j):
            s = alg.add(L1.a, L2.a)
            del letters[t:t + 2]
            if s != alg.zero:
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
    rows = [list(row) for row in st_eval(w)]
    out = []
    for (i, j) in _position_order(fam, sign):
        a = fam.project(rows, i, j)
        if a != alg.zero:
            L = Letter(i, j, a)
            out.append(L)
            # (1 - a) * residual: a row update on the block-i rows
            ops = [(r, c, neg(v)) for r, c, v in _entries(fam, L)]
            alg.add_row_multiples(rows, ops)
    if tuple(map(tuple, rows)) != alg.one:
        raise SforgeError("unipotent extraction failed; support was not unipotent")
    return Word(w.context, tuple(out))


def equal_words(w1, w2):
    """(verdict, oracle): graded equality check between two words.

    Tries reduced-word identity, then common-support normal forms (exact),
    then st-image equality (necessary; exact on unipotent support).
    """
    if reduce_word(w1) == reduce_word(w2):
        return True, "word"
    s1, s2 = support_sign(w1), support_sign(w2)
    if (
        w1.context.scale is None
        and s1 is not None
        and s2 is not None
        and (s1 == s2 or 0 in (s1, s2))
    ):
        return u_normal_form(w1) == u_normal_form(w2), "normal-form"
    return st_eval(w1) == st_eval(w2), "st"


class RelationCheck(NamedTuple):
    ok: bool
    oracle: str
    relation: str


def _nf_agrees(wl, wr):
    return u_normal_form(wl) == u_normal_form(wr)


def check_relation_instance(ctx, kind, i, j, k=None, l=None, a=None, b=None):
    """Check one instance of (St1), (St2) or (St3) under st.

    In a homotope context the (St3) right side is scaled by the context
    scale.  For plain instances whose two sides share unipotent support,
    the normal-form oracle is applied as well.
    """
    alg = ctx.algebra
    if kind == "St1":
        if a is None or b is None:
            raise SideConditionViolated("St1 needs two payloads")
        lhs = gen(ctx, i, j, a) * gen(ctx, i, j, b)
        rhs = gen(ctx, i, j, alg.add(a, b))
    elif kind == "St2":
        if j == k or i == l:
            raise SideConditionViolated("St2 requires j != k and i != l")
        lhs = commutator(gen(ctx, i, j, a), gen(ctx, k, l, b))
        rhs = Word(ctx)
    elif kind == "St3":
        if i == k:
            raise SideConditionViolated("St3 requires distinct outer indices")
        lhs = commutator(gen(ctx, i, j, a), gen(ctx, j, k, b))
        c = alg.mul(a, b)
        if ctx.scale is not None:
            c = alg.scalar_mul(ctx.scale, c)
        rhs = gen(ctx, i, k, c)
    else:
        raise ValueError("unknown relation %r" % (kind,))
    ok = st_eval(lhs) == st_eval(rhs)
    oracle = "st"
    if ok and ctx.scale is None:
        s1, s2 = support_sign(lhs), support_sign(rhs)
        if s1 is not None and s2 is not None and (s1 == s2 or 0 in (s1, s2)):
            ok = _nf_agrees(lhs, rhs)
            oracle = "st+normal-form"
    return RelationCheck(ok, oracle, kind)


class DiagonalElement:
    """An invertible diagonal element (u_1, ..., u_n), u_i a unit of e_i R e_i."""

    __slots__ = ("family", "components", "_inv")

    def __init__(self, family, components, validate=True):
        components = tuple(components)
        if len(components) != family.n:
            raise NonInvertibleComponent("need one component per block")
        if validate:
            for t, u in enumerate(components, start=1):
                if not family.contains(u, t, t):
                    raise NonInvertibleComponent("component %d not in its corner" % t)
                if not family.corner_is_unit(u, t):
                    raise NonInvertibleComponent("component %d not a corner unit" % t)
        self.family = family
        self.components = components
        self._inv = None

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

    def component_inverses(self):
        if self._inv is None:
            self._inv = tuple(
                self.family.corner_inv(u, t)
                for t, u in enumerate(self.components, start=1)
            )
        return self._inv

    def mul(self, other):
        alg = self.family.algebra
        return DiagonalElement(
            self.family,
            [alg.mul(a, b) for a, b in zip(self.components, other.components)],
            validate=False,
        )

    def inverse(self):
        return DiagonalElement(self.family, self.component_inverses(), validate=False)

    def __eq__(self, other):
        return (
            isinstance(other, DiagonalElement)
            and other.family == self.family
            and other.components == self.components
        )

    def __hash__(self):
        return hash((self.family, self.components))


def diag_act(d, w):
    """Conjugation action of a diagonal element: x_ij(a) -> x_ij(u_i a u_j^{-1})."""
    fam = w.context.family
    if d.family != fam:
        raise SforgeError("diagonal element belongs to a different family")
    alg = w.context.algebra
    us = d.components
    vs = d.component_inverses()
    out = tuple(
        Letter(L.i, L.j, alg.mul(us[L.i - 1], alg.mul(L.a, vs[L.j - 1])))
        for L in w.letters
    )
    return Word(w.context, out)


def f_alpha(w, ref):
    """Push a word over the coarse family to the fine family.

    Untouched letters keep their payload; a letter into (out of) the merged
    class splits into one letter per fine label, cutting the payload with
    the fine idempotent on the appropriate side.  Zero cuts are dropped.
    """
    alg = ref.fine.algebra
    ctx_fine = Context(ref.fine, w.context.scale, w.context.level)
    if w.context.family != ref.coarse:
        raise SforgeError("word does not live over the coarse family")
    out = []
    for L in w.letters:
        fi = ref.fine_of[L.i]
        fj = ref.fine_of[L.j]
        if len(fi) == 1 and len(fj) == 1:
            out.append(Letter(fi[0], fj[0], L.a))
        elif len(fj) > 1:
            for q in fj:
                aq = alg.mul(L.a, ref.fine.idempotent(q))
                if aq != alg.zero:
                    out.append(Letter(fi[0], q, aq))
        else:
            for p in fi:
                ap = alg.mul(ref.fine.idempotent(p), L.a)
                if ap != alg.zero:
                    out.append(Letter(p, fj[0], ap))
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
    alg = ref.fine.algebra
    ctx_coarse = Context(ref.coarse, w.context.scale, w.context.level)
    p, q = ref.fine_pair
    lm = ref.label_map
    aux = min(t for t in ref.fine.labels() if t not in (p, q))
    out = []
    for L in w.letters:
        I, J = lm[L.i], lm[L.j]
        if I != J:
            out.append(Letter(I, J, L.a))
            continue
        AUX = lm[aux]
        for x, y in morita_decompose(ref.fine, L.a, L.i, aux, L.j):
            out.extend(
                (
                    Letter(I, AUX, x),
                    Letter(AUX, J, y),
                    Letter(I, AUX, alg.neg(x)),
                    Letter(AUX, J, alg.neg(y)),
                )
            )
    return Word(ctx_coarse, tuple(out))


def express_as_commutators(ctx, i, k, c, j=None):
    """A word of commutators [x_ij(a_p), x_jk(b_p)] whose st image is 1 + c.

    The pairs come from the Morita witnesses for (i, j).  c = 0 yields the
    empty word; j defaults to the smallest label distinct from i and k.
    """
    fam = ctx.family
    require_blocks(fam, 3, "a commutator expression")
    if i == k:
        raise IndexClash("endpoints must differ")
    if j is None:
        j = min(t for t in fam.labels() if t not in (i, k))
    if j in (i, k):
        raise IndexClash("auxiliary index must differ from both endpoints")
    alg = ctx.algebra
    out = []
    for a, b in morita_decompose(fam, c, i, j, k):
        out.extend(
            (
                Letter(i, j, a),
                Letter(j, k, b),
                Letter(i, j, alg.neg(a)),
                Letter(j, k, alg.neg(b)),
            )
        )
    return Word(ctx, tuple(out))


def word_to_json(w):
    alg = w.context.algebra
    head = {
        "family": w.context.family.to_json(),
        "ring": alg.to_json(),
        "system": "plain" if w.context.scale is None else "homotope",
    }
    if w.context.scale is not None:
        head["scale"] = alg.scalar_ring.element_to_json(w.context.scale)
    if w.context.level is not None:
        head["level"] = w.context.level
    return {
        "context": head,
        "letters": [
            {"a": alg.element_to_json(L.a), "e": 1, "i": L.i, "j": L.j}
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
    and counted; the rest are verified exhaustively.
    """
    fam = ctx.family
    checked = bad = skipped = 0
    for i, j, k, l in relation_index_tuples(fam, kind):
        if kind == "St1":
            second = (i, j)
        elif kind == "St2":
            second = (k, l)
        else:
            second = (j, k)
        if fam.component_size(i, j) > cap or fam.component_size(*second) > cap:
            skipped += 1
            continue
        for a in fam.component_elements(i, j):
            for b in fam.component_elements(*second):
                ok = check_relation_instance(ctx, kind, i, j, k, l, a, b).ok
                checked += 1
                bad += not ok
    return {"checked": checked, "violations": bad, "tuples_skipped": skipped}


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
    alg = ctx.algebra
    labels = list(fam.labels())
    letters = []
    while len(letters) < length:
        i, j = rng.sample(labels, 2)
        if sign is not None and (i < j) != (sign > 0):
            i, j = j, i
        if (i, j) in avoid:
            continue
        a = fam.sample_component(i, j, rng)
        if a != alg.zero:
            letters.append(Letter(i, j, a))
    return Word(ctx, tuple(letters))


def word_from_json(ctx, obj):
    alg = ctx.algebra
    out = Word(ctx)
    for item in obj["letters"]:
        a = alg.element_from_json(item["a"])
        out = out * gen(ctx, item["i"], item["j"], a, item.get("e", 1))
    return out
