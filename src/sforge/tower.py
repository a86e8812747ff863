"""Towers of homotopes and the conjugation action of localized generators.

A tower is built from a block family: its algebra, and every payload it
carries, are the family's.  For a central scalar s the homotope at level
k is the algebra with the rescaled product (a, b) -> s^k * ab.  Levels
are indexed by the exponent; structure maps go down: a word at level
k + d maps to one at level k by scaling each letter's block values by
s^d.  Words over a level-k context use the scaled fold from st_eval.

The operators compared are left multiplications by corner values a in
R_ii on the block values of R_ij, each with a level shift (the operator
a/s^shift); two of them are equivalent when their composites agree after
finitely many structure maps.  Equivalence is certified within a level
budget, inequivalence only with a witness whose difference no power of s
annihilates.

Actors over the localized ring (payloads given as numerator/denominator
pairs) act on words letter by letter; st is equivariant for the action
after embedding both sides into GL over the localized scalar ring.  That
embedding is the localized image (LocalizedTower.image): the plain st
image over the localized ring of the letters psi(s^k a), one
MatrixAlgebra.fold_columns, so no homotope fold is embedded entrywise.  An
actor carries only block values: its numerator's on its component, and
for a diagonal actor also those of its inverse.  They multiply the block
values of the letters it acts on.  On the GL side the equivariance
st(Ad_g w) = g st(w) g^-1 is decided as image(out) g = g image(src),
which is equivalent because g is invertible (LocalizedTower.intertwines):
both sides are folds of the identity's column buffer, compared with ==
(one packed int per column over Z/m), with the root actor's g = 1 + v
as one more letter and a diagonal actor's g = 1 - e_i + u as a block
product on the block-i columns, so no row is built, no matrix is read
off either side, and no n x n matrix is inverted or multiplied.
"""

from __future__ import annotations

from .peirce import IdempotentFamily
from .rings import MatrixAlgebra, NotInvertible, SforgeError, localize_finite, random_element
from .words import (
    Context,
    Letter,
    Word,
    NonInvertibleComponent,
    express_as_commutators,
    f_alpha,
    gen,
    random_relation_indices,
    random_word,
    reduce_word,
    require_blocks,
    sample_relations,
)


# HomotopeTower walks the power sequence of s and keeps all of it; a scale
# whose powers do not repeat within this many terms (3 over Z/(2^61 - 1)
# has order 2^61 - 2) is refused on construction rather than walked for
# ever
POWER_SEQUENCE_MAX = 2 ** 16


class PowerSequenceTooLong(SforgeError):
    """The powers of the tower's scale do not repeat within POWER_SEQUENCE_MAX terms."""


class NoArrow(SforgeError):
    """Structure maps only go from higher levels to lower ones."""


class LevelBudgetExceeded(SforgeError):
    """The word's level cannot absorb the actor's denominator."""


class HomotopeTower:
    """The tower of homotopes of a block family's algebra at a central
    scalar s.

    The index monoid is the powers of s; since the scalar ring is finite
    the power sequence is eventually periodic, so arbitrary level values
    are exact.  The sequence is tabulated on construction, and a scale
    whose powers do not repeat within POWER_SEQUENCE_MAX terms raises
    PowerSequenceTooLong.
    """

    def __init__(self, family, s, k_max=6):
        self.family = family
        self.algebra = family.algebra
        self.scalar = family.algebra.base
        self.s = self.scalar.element(s) if isinstance(s, int) else s
        if k_max < 0:
            raise ValueError("level budget must be nonnegative")
        self.k_max = k_max
        self._powers = None
        self._preperiod = None
        self._localized = None
        self._power_table()

    def _power_table(self):
        if self._powers is None:
            pows = [self.scalar.one]
            seen = {self.scalar.one: 0}
            while True:
                v = self.scalar.mul(pows[-1], self.s)
                if v in seen:
                    self._preperiod = seen[v]
                    break
                if len(pows) == POWER_SEQUENCE_MAX:
                    raise PowerSequenceTooLong(
                        "the powers of the scale s = %s over %r do not repeat within "
                        "%d terms, the bound on a tower's power sequence"
                        % (self.scalar.element_to_json(self.s), self.scalar, POWER_SEQUENCE_MAX)
                    )
                seen[v] = len(pows)
                pows.append(v)
            self._powers = pows
        return self._powers

    def scale(self, k):
        """The scalar s^k (exact for any k >= 0)."""
        pows = self._power_table()
        if k < len(pows):
            return pows[k]
        mu = self._preperiod
        period = len(pows) - mu
        return pows[mu + (k - mu) % period]

    def stable_exponent(self):
        """The least e with s^e on the periodic part of the power sequence."""
        self._power_table()
        return self._preperiod

    def scale_block(self, e, a):
        """The block values s^e * a of block values a."""
        s = self.scale(e)
        mul = self.scalar.scalar_mul
        return tuple([mul(s, x) for x in a])

    def context(self, k):
        if not (0 <= k):
            raise ValueError("level must be nonnegative")
        return Context(self.family, self.scale(k), k)

    def structure_map_word(self, w, target):
        k = w.context.level
        if k is None:
            raise SforgeError("word has no tower level")
        if target > k or target < 0:
            raise NoArrow("no structure map from level %r to %r" % (k, target))
        e = k - target
        letters = tuple(Letter(L.i, L.j, self.scale_block(e, L.a)) for L in w.letters)
        # Keep the word's own family: quotient words ride the same tower.
        ctx = Context(w.context.family, self.scale(target), target)
        return Word(ctx, letters)

    def localized(self):
        if self._localized is None:
            self._localized = LocalizedTower(self)
        return self._localized


class EquivVerdict:
    """Outcome of a budgeted pre-morphism comparison.

    status is "equivalent" (with the minimal extra structure-map exponent),
    "inequivalent" (with a witness (element, stable residual)), or
    "inconclusive" when the budget ran out without a certificate.
    """

    def __init__(self, status, extra_level=None, witness=None):
        self.status = status
        self.extra_level = extra_level
        self.witness = witness

    def __bool__(self):
        return self.status == "equivalent"

    def __repr__(self):
        return "EquivVerdict(%r, extra_level=%r)" % (self.status, self.extra_level)


def premorphism_equiv(tower, i, j, f, g, carrier, budget=None):
    """Compare two pre-morphisms on a carrier within a level budget.

    f and g are pairs (num, shift): left multiplication by the block values
    num of R_ii on the block values of R_ij, at level shift `shift` (the
    operator num/s^shift).  The composites agree after m extra structure
    maps iff s^m kills the elementwise difference at the joint source
    level.  The difference is tracked along the full (eventually periodic)
    power sequence of s, so a difference that survives onto the cycle is a
    genuine inequivalence witness; a certificate beyond the budget is
    reported as inconclusive.
    """
    fam = tower.family
    sub = fam.algebra.base.sub
    if budget is None:
        budget = tower.k_max
    (a, fs), (c, gs) = f, g
    d = max(fs, gs)
    horizon = len(tower._power_table()) + 1
    worst = 0
    exhausted = False
    for b in carrier:
        x = fam.block_mul(a, i, i, tower.scale_block(d - fs, b), j)
        y = fam.block_mul(c, i, i, tower.scale_block(d - gs, b), j)
        diff = tuple(map(sub, x, y))
        h = diff
        m = 0
        while not fam.is_zero(h) and m < horizon:
            h = tower.scale_block(1, h)
            m += 1
        if not fam.is_zero(h):
            residual = tower.scale_block(tower.stable_exponent(), diff)
            return EquivVerdict("inequivalent", None, (b, residual))
        if m > budget:
            exhausted = True
        worst = max(worst, m)
    if exhausted:
        return EquivVerdict("inconclusive", None, None)
    return EquivVerdict("equivalent", worst, None)


class LocalizedTower:
    """The matrix algebra over the localized scalar ring, with transfer maps.

    psi = scalar_loc.psi is the scalar localization, applied entrywise;
    scalar_loc.lift is a set-level section of it.  The localized image
    1 + psi(s^k * q) embeds the level-k quasi-invertible elements q into
    the localized unit group; image(w) computes it for q = st(w) as one
    MatrixAlgebra.fold_columns, with no homotope fold and no pass over the
    n x n entries of q.  intertwines(actor, out, src) decides
    image(out) g = g image(src) for the actor's localized image g with two
    folds of the identity's column buffer (MatrixAlgebra.columns), and no
    image is built.  Each buffer is that of the algebra over the
    localized ring: one packed int per column when it is Z/d, so both
    sides compare as ints; _times_corner reads and writes the block-i
    columns one at a time (MatrixAlgebra.unpack_column, pack_column).
    conj, the test oracle of intertwines, goes through columns() and
    matrix().
    """

    def __init__(self, tower):
        self.tower = tower
        loc = localize_finite(tower.scalar, tower.s)
        self.scalar_loc = loc
        self.warning = loc.warning
        self.algebra = MatrixAlgebra(loc.ring, tower.algebra.n)
        self.family = IdempotentFamily(self.algebra, tower.family.blocks)
        self.s_unit = loc.psi(tower.s)
        self._s_inv = loc.ring.inv(self.s_unit)
        # the identity's column buffer: every fold starts from a shallow
        # copy, since MatrixAlgebra.fold_columns never changes a column in
        # place; every column a fold or _times_corner writes is canonical,
        # so two buffers compare by value
        self._unit = self.algebra.columns(self.algebra.one)

    def s_pow_inv(self, e):
        v = self.scalar_loc.ring.one
        for _ in range(e):
            v = self.scalar_loc.ring.mul(v, self._s_inv)
        return v

    def _letters(self, w):
        """The letters psi(s^k a) over the localized ring of a level-k word w."""
        s = w.context.scale
        mul = self.tower.scalar.scalar_mul
        psi = self.scalar_loc.psi
        return [(i, j, [psi(mul(s, x)) for x in a]) for i, j, a in w.letters]

    def _values(self, actor):
        """The block values of the actor's psi(num)/s^den: v for a root
        actor, u for a diagonal one."""
        mul = self.scalar_loc.ring.mul
        psi = self.scalar_loc.psi
        c = self.s_pow_inv(actor.den)
        return tuple([mul(c, psi(y)) for y in actor.block])

    def image(self, w):
        """1 + psi(s^k * st(w)), the localized image of a level-k word w.

        Since 1 + s^k (s^k x y + x + y) = (1 + s^k x)(1 + s^k y), this is
        the plain st image, over the localized ring, of the letters
        psi(s^k a): one fold of the identity's column buffer, read off as
        a matrix.  The cells are positions, so the word's own family gives
        them.
        """
        alg = self.algebra
        table = w.context.family.cell_table
        return alg.matrix(alg.fold_columns(self._unit[:], table, self._letters(w)))

    def intertwines(self, actor, out, src):
        """Is image(out) g == g image(src), for g the actor's localized image?

        g is invertible, so this is image(out) == g image(src) g^-1: st is
        equivariant for an action that sends src to out.  Both sides are
        column buffers folded from the identity's, compared with == (one
        int per column over Z/m); the actor and both words
        are over the tower's blocks.  A root actor's g = 1 + v, with
        v = psi(num)/s^den in R_ij, is the st image of the one letter
        x_ij(v), so the sides fold out's letters then x_ij(v), and x_ij(v)
        then src's letters.  A diagonal actor's g = 1 - e_i + u, with
        u = psi(num)/s^den in R_ii, right-multiplies columns by replacing
        the block-i ones with themselves times u (_times_corner): after
        the fold of out on one side, and on the identity's columns, which
        gives those of g, before the fold of src on the other.
        """
        alg = self.algebra
        table = self.family.cell_table
        a = self._values(actor)
        if isinstance(actor, RootActor):
            v = [(actor.i, actor.j, a)]
            lhs = alg.fold_columns(self._unit[:], table, self._letters(out) + v)
            return lhs == alg.fold_columns(self._unit[:], table, v + self._letters(src))
        i = actor.i
        lhs = self._times_corner(alg.fold_columns(self._unit[:], table, self._letters(out)), i, a)
        g = self._times_corner(self._unit[:], i, a)
        return lhs == alg.fold_columns(g, table, self._letters(src))

    def _times_corner(self, cols, i, u):
        """The column buffer cols times 1 - e_i + u, for the block values u
        of R_ii, in place: each block-i column becomes the block-i columns
        times u's column, one IdempotentFamily.block_mul of their n x |i|
        values; the other columns stay.  Columns are replaced, none is
        changed, and each one written is canonical."""
        fam = self.family
        alg = self.algebra
        blk = fam.support(i)
        k = len(blk)
        every = tuple(fam.labels())
        # the values of cols on cells(every, i), row by row
        m = [x for row in zip(*[alg.unpack_column(cols[c]) for c in blk]) for x in row]
        prod = fam.block_mul(m, every, i, u, i)
        for t, c in enumerate(blk):
            cols[c] = alg.pack_column(prod[t::k])
        return cols

    def conj(self, actor, x):
        """g x g^-1 for the localized image g of the actor, from its block
        values and its known inverse; no matrix is inverted or multiplied.

        No check calls it: ad_equivariance_check decides its identity as
        intertwines, and conj is kept as that check's test oracle and as a
        name perfbench's tracer wraps; it can go at the next benchmark
        change.
        A root actor is g = 1 + v with v = psi(num)/s^den in R_ij and
        g^-1 = 1 - v: MatrixAlgebra.add_row_multiples gives the block-i
        rows v times the block-j rows, then fold_columns of the one letter
        x_ij(-v) gives the block-j columns the block-i columns times -v.
        Both kernels need no row (column) to be both source and target,
        which i != j grants.
        A diagonal actor is g = 1 - e_i + u with u = psi(num)/s^den in R_ii
        and g^-1 = 1 - e_i + psi(inv_block); its corner is both source and
        target, so the block-i rows become u times themselves, then the
        block-i columns themselves times psi(inv_block), by block_mul on
        projections written back.  O(n |block i| (|block i| + |block j|))
        ring operations.
        """
        fam = self.family
        alg = self.algebra
        base = alg.base
        psi = self.scalar_loc.psi
        a = self._values(actor)
        i = actor.i
        if isinstance(actor, RootActor):
            j = actor.j
            rows = list(x)
            alg.add_row_multiples(rows, fam.cells(i, j), a)
            cols = alg.columns(rows)
            alg.fold_columns(cols, fam.cell_table, ((i, j, tuple(map(base.neg, a))),))
            return alg.matrix(cols)
        every = tuple(fam.labels())
        b = tuple(map(psi, actor.inv_block))
        x = fam.write(x, fam.block_mul(a, i, i, fam.project(x, i, every), every), i, every)
        return fam.write(x, fam.block_mul(fam.project(x, every, i), every, i, b, i), every, i)


class DiagActor:
    """The diagonal generator with num/s^den in corner slot i.

    block is the block values of num on R_ii, and inv_block those of the
    lifted s^den * num^{-1}, computed once on the localized corner.
    """

    def __init__(self, tower, i, block, den=0):
        fam = tower.family
        block = tuple(block)
        if len(block) != len(fam.cells(i, i)):
            raise NonInvertibleComponent("numerator not in corner %d" % i)
        loc = tower.localized()
        sl = loc.scalar_loc
        try:
            inv_loc = loc.family.corner_inv(tuple(map(sl.psi, block)), i)
        except NotInvertible:
            raise NonInvertibleComponent("numerator not invertible after localization") from None
        self.tower = tower
        self.i = i
        self.den = den
        self.block = block
        # lift of s^den * num^{-1} from the localized corner
        sd = sl.psi(tower.scale(den))
        self.inv_block = tuple(sl.lift(sl.ring.scalar_mul(sd, x)) for x in inv_loc)

    def inverse(self):
        """d_i of the lifted localized inverse, at denominator zero."""
        return DiagActor(self.tower, self.i, self.inv_block, 0)

    def __repr__(self):
        return "DiagActor(i=%d, den=%d)" % (self.i, self.den)


class RootActor:
    """The root generator x_ij(num/s^den) over the localized ring; block
    is the block values of num on R_ij."""

    def __init__(self, tower, i, j, block, den=0):
        fam = tower.family
        require_blocks(fam, 4, "a root actor")
        if i == j:
            raise SforgeError("root actor indices must differ")
        block = tuple(block)
        if len(block) != len(fam.cells(i, j)):
            raise SforgeError("numerator not in the declared component")
        self.tower = tower
        self.i = i
        self.j = j
        self.den = den
        self.block = block

    def inverse(self):
        neg = self.tower.algebra.base.neg
        return RootActor(self.tower, self.i, self.j, tuple(map(neg, self.block)), self.den)

    def __repr__(self):
        return "RootActor(i=%d, j=%d, den=%d)" % (self.i, self.j, self.den)


def tower_ad(tower, actor, w):
    """Conjugate a level k + den word by the actor, landing at level k.

    Letters not meeting the actor's indices take the plain structure map;
    the others follow the localized conjugation formulas with the
    denominator absorbed into the level shift.  A root actor x_ij acts on
    presented_source(tower, actor, w), where no letter sits at (j, i).
    """
    k_src = w.context.level
    if k_src is None:
        raise SforgeError("tower action needs a leveled word")
    k = k_src - actor.den
    if k < 0:
        raise LevelBudgetExceeded("word at level %d cannot absorb denominator %d" % (k_src, actor.den))
    fam = tower.family
    mul = fam.block_mul
    d = actor.den
    out = []
    if isinstance(actor, DiagActor):
        i, u, uinv = actor.i, actor.block, actor.inv_block
        for L in w.letters:
            if L.i == i:
                out.append(Letter(L.i, L.j, mul(u, i, i, L.a, L.j)))
            elif L.j == i:
                out.append(Letter(L.i, L.j, tower.scale_block(d, mul(L.a, L.i, i, uinv, i))))
            else:
                out.append(Letter(L.i, L.j, tower.scale_block(d, L.a)))
        return Word(tower.context(k), tuple(out))
    i, j, v = actor.i, actor.j, actor.block
    neg = fam.algebra.base.neg
    for L in presented_source(tower, actor, w).letters:
        if L.i == j:
            va = mul(v, i, j, L.a, L.j)
            if not fam.is_zero(va):
                out.append(Letter(i, L.j, va))
            out.append(Letter(j, L.j, tower.scale_block(d, L.a)))
        elif L.j == i:
            av = mul(L.a, L.i, i, v, j)
            if not fam.is_zero(av):
                out.append(Letter(L.i, j, tuple(map(neg, av))))
            out.append(Letter(L.i, i, tower.scale_block(d, L.a)))
        else:
            out.append(Letter(L.i, L.j, tower.scale_block(d, L.a)))
    return Word(tower.context(k), tuple(out))


def presented_source(tower, actor, w):
    """The word tower_ad actually acts on, letter for letter.

    A letter x_ji(a) at a root actor x_ij's opposite root is not
    conjugation-stable at positive levels; the action reads it through
    express_as_commutators(ctx, j, i, a) over the smallest outside block
    (at level 0 the presentation and the letter have the same st image).
    All other letters are returned unchanged, and a word with no letter
    to expand is returned itself: no expansion has an opposite-root
    letter, so presenting a presented source changes nothing.
    """
    if not isinstance(actor, RootActor):
        return w
    i, j = actor.i, actor.j
    if all((L.i, L.j) != (j, i) for L in w.letters):
        return w
    out = []
    for L in w.letters:
        if (L.i, L.j) == (j, i):
            out.extend(express_as_commutators(w.context, j, i, L.a).letters)
        else:
            out.append(L)
    return Word(w.context, tuple(out))


def ad_equivariance_check(tower, actor, w):
    """(holds, acted word): compare both sides inside the localized units.

    For the actor's localized image g, the acted word out and the
    presented source word src, st(out) = g st(src) g^-1 is decided as
    image(out) g == g image(src) (LocalizedTower.intertwines): two folds
    of the identity's columns, with no conjugation and no image built.
    On words without opposite-root letters src is w itself and the check
    is the plain equivariance statement.  The presented source is built
    once, and tower_ad acts on it, so a fault in express_as_commutators
    cancels out here; that expansion is checked against st of the letter
    on its own.
    """
    src = presented_source(tower, actor, w)
    out = tower_ad(tower, actor, src)
    return tower.localized().intertwines(actor, out, src), out


def equal_after_localization(tower, w1, w2):
    """st-image comparison of leveled words in the localized units."""
    loc = tower.localized()
    return loc.image(w1) == loc.image(w2)


def _sample_diag_actor(tower, rng, i, den):
    fam = tower.family
    for _ in range(64):
        try:
            return DiagActor(tower, i, fam.sample_component(i, i, rng), den)
        except NonInvertibleComponent:
            continue
    return None


def _random_actor(tower, rng, den):
    fam = tower.family
    labels = list(fam.labels())
    i, j = rng.sample(labels, 2)
    if len(labels) >= 4 and rng.random() < 0.5:
        return RootActor(tower, i, j, fam.sample_component(i, j, rng), den)
    return _sample_diag_actor(tower, rng, i, den)


def tower_relation_suite(tower, rng, samples_per_level=50, mutate=None):
    """Scaled relations and action equivariance, level by level.

    mutate="drop-scale" checks (St3) against the unscaled product payload
    instead; the resulting mismatches are counted as violations, which is
    the point of the fault.  A zero level budget yields no checks and the
    status "inconclusive".
    """
    fam = tower.family
    require_blocks(fam, 2, "the tower relation suite")
    # below 3 blocks only (St1) is sampled; St2 and St3 are reported empty
    kinds = ("St1", "St2", "St3") if fam.n >= 3 else ("St1",)
    report = {
        "k_max": tower.k_max,
        "status": "checked",
        "levels": {},
        "violations": 0,
        "warnings": [],
    }
    loc = tower.localized()
    if loc.warning:
        report["warnings"].append(loc.warning)
    if tower.k_max == 0:
        report["status"] = "inconclusive"
        report["warnings"].append("level budget is zero: nothing was checked")
        return report
    total = 0
    for k in range(tower.k_max + 1):
        ctx = tower.context(k)
        per_level = {kind: {"checked": 0, "violations": 0} for kind in ("St2", "St3")}
        per_level.update(sample_relations(ctx, rng, kinds, samples_per_level, mutate))
        total += sum(v["violations"] for v in per_level.values())
        eq_checked = eq_bad = 0
        for _ in range(samples_per_level):
            den = rng.randrange(2) if k >= 1 else 0
            actor = _random_actor(tower, rng, den)
            if actor is None:
                continue
            w = random_word(ctx, rng, 2)
            holds, _ = ad_equivariance_check(tower, actor, w)
            eq_checked += 1
            eq_bad += not holds
        per_level["equivariance"] = {"checked": eq_checked, "violations": eq_bad}
        total += eq_bad
        report["levels"][str(k)] = per_level
    report["violations"] = total
    return report


def split_naturality_suite(tower, rng, samples=25):
    """Refinement of words commutes with the structure maps.

    Merges the last two blocks, samples words of 3 letters over the coarse
    family at a positive level, and compares split-then-map against
    map-then-split after reduction (zero cuts may drop on one side only).
    Needs three blocks, so that the coarse family still has two.
    """
    fam = tower.family
    require_blocks(fam, 3, "the split naturality suite")
    labels = list(fam.labels())
    if tower.k_max < 1:
        return {"checked": 0, "violations": 0}
    coarse, ref = fam.merge(labels[-2], labels[-1])
    checked = bad = 0
    for _ in range(samples):
        k = rng.randrange(1, tower.k_max + 1)
        ctx = Context(coarse, tower.scale(k), k)
        w = random_word(ctx, rng, 3)
        lhs = f_alpha(tower.structure_map_word(w, k - 1), ref)
        rhs = tower.structure_map_word(f_alpha(w, ref), k - 1)
        checked += 1
        bad += reduce_word(lhs) != reduce_word(rhs)
    return {"checked": checked, "violations": bad}


def actor_relation_suite(tower, rng, samples=25):
    """The localized generators act compatibly with their own relations.

    Composites of actions are compared against the action of the composed
    generator inside the localized unit group: products and commutation of
    diagonal actors, (St2)/(St3) between root actors, stabilization on the
    actor's own root, and diagonal conjugation of a root actor.
    """
    fam = tower.family
    require_blocks(fam, 2, "the actor relation suite")
    labels = list(fam.labels())
    n = len(labels)
    mul = fam.block_mul
    cases = {}

    def tally(name, ok):
        slot = cases.setdefault(name, {"checked": 0, "violations": 0})
        slot["checked"] += 1
        slot["violations"] += not ok

    def act(actors, w):
        """Apply actions right to left, as composition of conjugations reads."""
        for actor in reversed(actors):
            w = tower_ad(tower, actor, w)
        return w

    for _ in range(samples):
        i, j = rng.sample(labels, 2)
        du = rng.randrange(2) if tower.k_max >= 4 else 0
        u1 = _sample_diag_actor(tower, rng, i, du)
        u2 = _sample_diag_actor(tower, rng, i, du)
        uj = _sample_diag_actor(tower, rng, j, du)
        if u1 is None or u2 is None or uj is None:
            continue
        k_src = tower.k_max
        w = random_word(tower.context(k_src), rng, 2, avoid={(j, i)})
        prod = DiagActor(tower, i, mul(u1.block, i, i, u2.block, i), 2 * du)
        ok = equal_after_localization(tower, act([u1, u2], w), tower_ad(tower, prod, w))
        tally("diag_product", ok)
        ok = equal_after_localization(tower, act([u1, uj], w), act([uj, u1], w))
        tally("diag_commute", ok)

        if n < 4:
            continue
        v = fam.sample_component(i, j, rng)
        x = RootActor(tower, i, j, v, du)
        conj = act([u1, x, u1.inverse()], w)
        direct = tower_ad(
            tower, RootActor(tower, i, j, mul(u1.block, i, i, v, j), 2 * du), w
        )
        tally("diag_root_left", equal_after_localization(tower, conj, direct))
        conj = act([uj, x, uj.inverse()], w)
        direct = tower_ad(
            tower,
            RootActor(tower, i, j, mul(v, i, j, uj.inv_block, j), du),
            w,
        )
        tally("diag_root_right", equal_after_localization(tower, conj, direct))

        a = fam.sample_component(i, j, rng)
        if not fam.is_zero(a):
            src = gen(tower.context(k_src), i, j, a)
            out = tower_ad(tower, x, src)
            tally(
                "same_root_stable",
                equal_after_localization(tower, out, tower.structure_map_word(src, k_src - du)),
            )

    if n >= 4:
        for _ in range(samples):
            i, j, k2, l = random_relation_indices(fam, rng, "St2")
            dv = rng.randrange(2) if tower.k_max >= 4 else 0
            x = RootActor(tower, i, j, fam.sample_component(i, j, rng), dv)
            y = RootActor(tower, k2, l, fam.sample_component(k2, l, rng), dv)
            w = random_word(
                tower.context(tower.k_max), rng, 2, avoid={(j, i), (l, k2)}
            )
            tally(
                "root_st2",
                equal_after_localization(tower, act([x, y], w), act([y, x], w)),
            )
            i, j, k2, _ = random_relation_indices(fam, rng, "St3")
            x = RootActor(tower, i, j, fam.sample_component(i, j, rng), dv)
            y = RootActor(tower, j, k2, fam.sample_component(j, k2, rng), dv)
            if tower.k_max < 4 * dv:
                continue
            w = random_word(
                tower.context(tower.k_max), rng, 2, avoid={(j, i), (k2, j), (k2, i)}
            )
            comm = act([x, y, x.inverse(), y.inverse()], w)
            direct = tower_ad(
                tower,
                RootActor(tower, i, k2, fam.block_mul(x.block, i, j, y.block, k2), 2 * dv),
                w,
            )
            tally("root_st3", equal_after_localization(tower, comm, direct))

    checked = sum(c["checked"] for c in cases.values())
    bad = sum(c["violations"] for c in cases.values())
    return {"checked": checked, "violations": bad, "cases": cases}


def scaled_operator_suite(tower, rng, max_extra=2):
    """Budgeted equivalence of left multiplication operators.

    For corner numerators a, the operator a/s over the (i, j) component is
    compared against a*s^e over s^(1+e), e = 0, 1, 2; these must be
    equivalent with extra structure exponent at most max_extra.  Corner and
    carrier are enumerated when they have at most 256 elements, sampled
    otherwise.  A pair whose difference survives onto the power cycle of s
    is certified inequivalent.
    """
    fam = tower.family
    require_blocks(fam, 2, "the scaled operator suite")
    alg = tower.algebra
    labels = list(fam.labels())
    i, j = labels[0], labels[1]
    # the operators multiply R_ij block values by R_ii ones
    if fam.component_size(i, j) <= 256:
        carrier = list(fam.component_elements(i, j))
    else:
        carrier = [fam.sample_component(i, j, rng) for _ in range(64)]
    if fam.component_size(i, i) <= 256:
        corner = list(fam.component_elements(i, i))
    else:
        corner = [fam.sample_component(i, i, rng) for _ in range(32)]

    report = {
        "pairs_checked": 0,
        "extra_exponent_max": 0,
        "violations": 0,
        "identities": {"checked": 0, "violations": 0},
        "inequivalent_found": False,
    }
    for a in corner:
        for e in (0, 1, 2):
            f = (a, 1)
            g = (tower.scale_block(e, a), 1 + e)
            verdict = premorphism_equiv(tower, i, j, f, g, carrier)
            report["pairs_checked"] += 1
            if verdict.status != "equivalent" or verdict.extra_level > max_extra:
                report["violations"] += 1
            else:
                report["extra_exponent_max"] = max(
                    report["extra_exponent_max"], verdict.extra_level
                )

    for _ in range(200):
        u = random_element(alg, rng)
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        ok = alg.mul(u, alg.mul(a, b)) == alg.mul(alg.mul(u, a), b)
        ok = ok and alg.mul(alg.mul(a, u), b) == alg.mul(a, alg.mul(u, b))
        ok = ok and alg.mul(a, alg.mul(b, u)) == alg.mul(alg.mul(a, b), u)
        report["identities"]["checked"] += 1
        report["identities"]["violations"] += not ok

    report["inequivalent_found"] = _inequivalent_pair(tower, i, j, corner, carrier)
    return report


def _inequivalent_pair(tower, i, j, corner, carrier):
    """Is some pair of operators L_a, L_b (a, b in corner, block values of
    R_ii) certified inequivalent on the carrier in R_ij?

    For each a, the first b whose difference survives onto the power cycle
    of s is compared: its probe s^e (a - b) c, with e the stable exponent,
    is nonzero for some c.  A pair with s^e (a - b) = 0 is skipped without
    a product, so a nilpotent scale, where every such difference is zero,
    costs no product.
    """
    fam = tower.family
    sub = fam.algebra.base.sub
    e = tower.stable_exponent()
    for a in corner:
        for b in corner:
            diff = tower.scale_block(e, tuple(map(sub, a, b)))
            if fam.is_zero(diff):
                continue
            if any(not fam.is_zero(fam.block_mul(diff, i, i, c, j)) for c in carrier):
                verdict = premorphism_equiv(tower, i, j, (a, 0), (b, 0), carrier)
                if verdict.status == "inequivalent" and verdict.witness is not None:
                    return True
                break
    return False
