"""Towers of homotopes and the conjugation action of localized generators.

For a central scalar s the homotope at level k is the ring R with the
rescaled product (a, b) -> s^k * ab.  Levels are indexed by the exponent;
structure maps go down: a at level k + d maps to s^d * a at level k.
Words over a level-k context use the scaled fold from st_eval.

Pre-morphisms between towers carry a level shift and one additive
component applied at every level; two of them are equivalent when their
composites agree after finitely many structure maps.  Equivalence is
certified within a level budget, inequivalence only with a witness whose
difference no power of s annihilates.

Actors over the localized ring (payloads given as numerator/denominator
pairs) act on words letter by letter; st is equivariant for the action
after embedding both sides into GL over the localized scalar ring.
"""

from __future__ import annotations

from .peirce import IdempotentFamily, morita_decompose
from .rings import MatrixAlgebra, SforgeError, localize_finite, random_element
from .words import (
    Context,
    Letter,
    Word,
    NonInvertibleComponent,
    check_relation_instance,
    commutator,
    f_alpha,
    gen,
    random_relation_indices,
    random_word,
    reduce_word,
    require_blocks,
    st_eval,
)


class NoArrow(SforgeError):
    """Structure maps only go from higher levels to lower ones."""


class LevelMismatch(SforgeError):
    """Operands live at incompatible tower levels."""


class LevelBudgetExceeded(SforgeError):
    """The word's level cannot absorb the actor's denominator."""


class HomotopeElement:
    """A ring element tagged with its tower level."""

    __slots__ = ("level", "payload")

    def __init__(self, level, payload):
        self.level = level
        self.payload = payload

    def __eq__(self, other):
        return (
            isinstance(other, HomotopeElement)
            and other.level == self.level
            and other.payload == self.payload
        )

    def __hash__(self):
        return hash((self.level, self.payload))

    def __repr__(self):
        return "HomotopeElement(%d, %r)" % (self.level, self.payload)


class HomotopeTower:
    """The tower of homotopes of an algebra at a central scalar s.

    The index monoid is the powers of s; since the scalar ring is finite
    the power sequence is eventually periodic, so arbitrary level values
    are exact.  family is required for word-level operations only.
    """

    def __init__(self, algebra, s, k_max=6, family=None):
        if family is not None and family.algebra != algebra:
            raise SforgeError("family does not match the algebra")
        self.algebra = algebra
        self.family = family
        self.scalar = algebra.scalar_ring
        self.s = self.scalar.element(s) if isinstance(s, int) else s
        if k_max < 0:
            raise ValueError("level budget must be nonnegative")
        self.k_max = k_max
        self._powers = None
        self._preperiod = None
        self._localized = None

    def _power_table(self):
        if self._powers is None:
            pows = [self.scalar.one]
            seen = {self.scalar.one: 0}
            while True:
                v = self.scalar.mul(pows[-1], self.s)
                if v in seen:
                    self._preperiod = seen[v]
                    break
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

    def scalar_pow_mul(self, e, a):
        return self.algebra.scalar_mul(self.scale(e), a)

    def context(self, k):
        if self.family is None:
            raise SforgeError("word contexts need an idempotent family")
        if not (0 <= k):
            raise ValueError("level must be nonnegative")
        return Context(self.family, self.scale(k), k)

    def element(self, k, payload):
        return HomotopeElement(k, payload)

    def add(self, x, y):
        if x.level != y.level:
            raise LevelMismatch("addition needs matching levels")
        return HomotopeElement(x.level, self.algebra.add(x.payload, y.payload))

    def homotope_mul(self, x, y):
        """The level product (a, b) -> s^k * ab."""
        if x.level != y.level:
            raise LevelMismatch("multiplication needs matching levels")
        p = self.scalar_pow_mul(x.level, self.algebra.mul(x.payload, y.payload))
        return HomotopeElement(x.level, p)

    def structure_map(self, x, target):
        if target > x.level:
            raise NoArrow("no structure map upward from level %d" % x.level)
        if target < 0:
            raise NoArrow("levels are nonnegative")
        return HomotopeElement(target, self.scalar_pow_mul(x.level - target, x.payload))

    def structure_map_word(self, w, target):
        k = w.context.level
        if k is None:
            raise SforgeError("word has no tower level")
        if target > k or target < 0:
            raise NoArrow("no structure map from level %r to %r" % (k, target))
        e = k - target
        letters = tuple(
            Letter(L.i, L.j, self.scalar_pow_mul(e, L.a)) for L in w.letters
        )
        # Keep the word's own family: quotient words ride the same tower.
        ctx = Context(w.context.family, self.scale(target), target)
        return Word(ctx, letters)

    def localized(self):
        if self._localized is None:
            self._localized = LocalizedTower(self)
        return self._localized


class TowerMorphism:
    """A pre-morphism of towers: a level shift plus one additive component.

    The component must commute with multiplication by the central scalar;
    every operator built here does.
    """

    def __init__(self, shift, component, name="morphism"):
        if shift < 0:
            raise ValueError("level shift must be nonnegative")
        self.shift = shift
        self.component = component
        self.name = name

    def __repr__(self):
        return "TowerMorphism(%d, %s)" % (self.shift, self.name)


class ScaledOperator(TowerMorphism):
    """Multiplication by a localized element num/s^den, on one side.

    kind "L" multiplies payloads by num on the left (a ring homomorphism
    in num), kind "R" on the right (an anti-homomorphism); the denominator
    exponent is the level shift.
    """

    def __init__(self, algebra, kind, num, den=0):
        if kind not in ("L", "R"):
            raise ValueError("operator kind must be 'L' or 'R'")
        if kind == "L":
            component = lambda b: algebra.mul(num, b)
        else:
            component = lambda b: algebra.mul(b, num)
        super().__init__(den, component, "%s_(num/s^%d)" % (kind, den))
        self.kind = kind
        self.num = num
        self.den = den

    def __eq__(self, other):
        return (
            isinstance(other, ScaledOperator)
            and (other.kind, other.num, other.den) == (self.kind, self.num, self.den)
        )

    def __hash__(self):
        return hash((self.kind, self.num, self.den))


def scaled_op_apply(tower, op, x):
    """Apply num/s^den to a leveled element, landing den levels lower."""
    if x.level < op.shift:
        raise LevelMismatch("element level %d cannot absorb shift %d" % (x.level, op.shift))
    return HomotopeElement(x.level - op.shift, op.component(x.payload))


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


def premorphism_equiv(tower, f, g, carrier, budget=None):
    """Compare two pre-morphisms on a carrier within a level budget.

    The composites agree after m extra structure maps iff s^m kills the
    elementwise difference at the joint source level.  The difference is
    tracked along the full (eventually periodic) power sequence of s, so
    a difference that survives onto the cycle is a genuine inequivalence
    witness; a certificate beyond the budget is reported as inconclusive.
    """
    alg = tower.algebra
    if budget is None:
        budget = tower.k_max
    d = max(f.shift, g.shift)
    horizon = len(tower._power_table()) + 1
    worst = 0
    exhausted = False
    for b in carrier:
        x = f.component(tower.scalar_pow_mul(d - f.shift, b))
        y = g.component(tower.scalar_pow_mul(d - g.shift, b))
        h = alg.sub(x, y)
        m = 0
        while h != alg.zero and m < horizon:
            h = alg.scalar_mul(tower.s, h)
            m += 1
        if h != alg.zero:
            residual = tower.scalar_pow_mul(tower.stable_exponent(), alg.sub(x, y))
            return EquivVerdict("inequivalent", None, (b, residual))
        if m > budget:
            exhausted = True
        worst = max(worst, m)
    if exhausted:
        return EquivVerdict("inconclusive", None, None)
    return EquivVerdict("equivalent", worst, None)


class LocalizedTower:
    """The algebra over the localized scalar ring, with transfer maps.

    psi applies the scalar localization entrywise; lift is a set-level
    section.  gamma(k, q) = 1 + psi(s^k * q) embeds the level-k
    quasi-invertible elements into the localized unit group.
    """

    def __init__(self, tower):
        self.tower = tower
        loc = localize_finite(tower.scalar, tower.s)
        self.scalar_loc = loc
        self.warning = loc.warning
        alg = tower.algebra
        if isinstance(alg, MatrixAlgebra):
            if alg.base != tower.scalar:
                raise SforgeError("localization needs a commutative matrix base")
            self.algebra = MatrixAlgebra(loc.ring, alg.n)
        else:
            self.algebra = loc.ring
        self.family = (
            IdempotentFamily(self.algebra, tower.family.blocks)
            if tower.family is not None
            else None
        )
        self.s_unit = loc.psi(tower.s)
        self._s_inv = loc.ring.inv(self.s_unit)

    def psi(self, a):
        p = self.scalar_loc.psi
        if isinstance(self.algebra, MatrixAlgebra):
            return tuple(tuple(p(x) for x in row) for row in a)
        return p(a)

    def lift(self, a):
        lf = self.scalar_loc.lift
        if isinstance(self.algebra, MatrixAlgebra):
            return tuple(tuple(lf(x) for x in row) for row in a)
        return lf(a)

    def s_pow_inv(self, e):
        v = self.scalar_loc.ring.one
        for _ in range(e):
            v = self.scalar_loc.ring.mul(v, self._s_inv)
        return v

    def gamma(self, k, q):
        """1 + psi(s^k * q), the localized image of a level-k element."""
        return self.algebra.add(self.algebra.one, self.psi(self.tower.scalar_pow_mul(k, q)))

    def conj(self, g, x):
        return self.algebra.mul(g, self.algebra.mul(x, self.algebra.inv(g)))

    def actor_image(self, actor):
        scaled = self.algebra.scalar_mul(self.s_pow_inv(actor.den), self.psi(actor.num))
        if isinstance(actor, RootActor):
            return self.algebra.add(self.algebra.one, scaled)
        e_i = self.family.idempotent(actor.i)
        return self.algebra.add(self.algebra.sub(self.algebra.one, e_i), scaled)


class DiagActor:
    """The diagonal generator with num/s^den in corner slot i."""

    def __init__(self, tower, i, num, den=0):
        fam = tower.family
        if fam is None:
            raise SforgeError("actors need an idempotent family")
        if not fam.contains(num, i, i):
            raise NonInvertibleComponent("numerator not in corner %d" % i)
        loc = tower.localized()
        if not loc.family.corner_is_unit(loc.psi(num), i):
            raise NonInvertibleComponent("numerator not invertible after localization")
        self.tower = tower
        self.i = i
        self.num = num
        self.den = den
        # lift of s^den * num^{-1} from the localized corner
        inv_loc = loc.family.corner_inv(loc.psi(num), i)
        self._inv_num = loc.lift(loc.algebra.scalar_mul(loc.scalar_loc.psi(tower.scale(den)), inv_loc))

    def inverse(self):
        """d_i of the lifted localized inverse, at denominator zero."""
        return DiagActor(self.tower, self.i, self._inv_num, 0)

    def __repr__(self):
        return "DiagActor(i=%d, den=%d)" % (self.i, self.den)


class RootActor:
    """The root generator x_ij(num/s^den) over the localized ring."""

    def __init__(self, tower, i, j, num, den=0):
        fam = tower.family
        if fam is None:
            raise SforgeError("actors need an idempotent family")
        require_blocks(fam, 4, "a root actor")
        if i == j:
            raise SforgeError("root actor indices must differ")
        if not fam.contains(num, i, j):
            raise SforgeError("numerator not in the declared component")
        self.tower = tower
        self.i = i
        self.j = j
        self.num = num
        self.den = den

    def inverse(self):
        return RootActor(self.tower, self.i, self.j, self.tower.algebra.neg(self.num), self.den)

    def __repr__(self):
        return "RootActor(i=%d, j=%d, den=%d)" % (self.i, self.j, self.den)


def _opposite_root_letters(tower, actor, a, out):
    """Ad of x_ij(num/s^d) on the opposite letter x_ji(a).

    Route: merge blocks i and j, where the actor becomes a corner element
    E + v of the merged diagonal with (E + v)^{-1} = E - v; expand a into
    commutators through the smallest outside block, act on the merged
    letters, and split back.  Emitted letters already carry the uniform
    level shift d.
    """
    alg = tower.algebra
    fam = tower.family
    i, j, num, d = actor.i, actor.j, actor.num, actor.den
    aux = min(t for t in fam.labels() if t not in (i, j))
    sd = tower.scale(d)
    for xp, yp in morita_decompose(fam, a, j, aux, i):
        top = [(i, aux, alg.mul(num, xp)), (j, aux, alg.scalar_mul(sd, xp))]
        bot = [(aux, i, alg.scalar_mul(sd, yp)), (aux, j, alg.neg(alg.mul(yp, num)))]
        top.sort()
        bot.sort()
        for r, c, v in top + bot:
            if v != alg.zero:
                out.append(Letter(r, c, v))
        for r, c, v in top + bot:
            if v != alg.zero:
                out.append(Letter(r, c, alg.neg(v)))


def tower_ad(tower, actor, w):
    """Conjugate a level k + den word by the actor, landing at level k.

    Letters not meeting the actor's indices take the plain structure map;
    the others follow the localized conjugation formulas with the
    denominator absorbed into the level shift.
    """
    k_src = w.context.level
    if k_src is None:
        raise SforgeError("tower action needs a leveled word")
    k = k_src - actor.den
    if k < 0:
        raise LevelBudgetExceeded("word at level %d cannot absorb denominator %d" % (k_src, actor.den))
    alg = tower.algebra
    d = actor.den
    out = []
    if isinstance(actor, DiagActor):
        i, num, binv = actor.i, actor.num, actor._inv_num
        for L in w.letters:
            if L.i == i:
                out.append(Letter(L.i, L.j, alg.mul(num, L.a)))
            elif L.j == i:
                out.append(Letter(L.i, L.j, tower.scalar_pow_mul(d, alg.mul(L.a, binv))))
            else:
                out.append(Letter(L.i, L.j, tower.scalar_pow_mul(d, L.a)))
        return Word(tower.context(k), tuple(out))
    i, j, num = actor.i, actor.j, actor.num
    for L in w.letters:
        if (L.i, L.j) == (j, i):
            _opposite_root_letters(tower, actor, L.a, out)
        elif L.i == j:
            va = alg.mul(num, L.a)
            if va != alg.zero:
                out.append(Letter(i, L.j, va))
            out.append(Letter(j, L.j, tower.scalar_pow_mul(d, L.a)))
        elif L.j == i:
            av = alg.mul(L.a, num)
            if av != alg.zero:
                out.append(Letter(L.i, j, alg.neg(av)))
            out.append(Letter(L.i, i, tower.scalar_pow_mul(d, L.a)))
        else:
            out.append(Letter(L.i, L.j, tower.scalar_pow_mul(d, L.a)))
    return Word(tower.context(k), tuple(out))


def presented_source(tower, actor, w):
    """The word tower_ad actually acts on, letter for letter.

    A letter at the actor's opposite root is not conjugation-stable at
    positive levels; the action reads it through its commutator
    presentation over the smallest outside block (at level 0 the
    presentation and the letter have the same st image).  All other
    letters are returned unchanged.
    """
    if not isinstance(actor, RootActor):
        return w
    fam = tower.family
    i, j = actor.i, actor.j
    aux = min(t for t in fam.labels() if t not in (i, j))
    alg = tower.algebra
    out = []
    for L in w.letters:
        if (L.i, L.j) != (j, i):
            out.append(L)
            continue
        for xp, yp in morita_decompose(fam, L.a, j, aux, i):
            out.append(Letter(j, aux, xp))
            out.append(Letter(aux, i, yp))
            out.append(Letter(j, aux, alg.neg(xp)))
            out.append(Letter(aux, i, alg.neg(yp)))
    return Word(w.context, tuple(out))


def ad_equivariance_check(tower, actor, w):
    """(holds, acted word): compare both sides inside the localized units.

    The right side conjugates the presented source word; on words without
    opposite-root letters that word is w itself and the check is the
    plain equivariance statement.
    """
    loc = tower.localized()
    out = tower_ad(tower, actor, w)
    src = presented_source(tower, actor, w)
    lhs = loc.gamma(out.context.level, st_eval(out))
    ghat = loc.actor_image(actor)
    rhs = loc.conj(ghat, loc.gamma(src.context.level, st_eval(src)))
    return lhs == rhs, out


def _gamma_of_word(tower, w):
    return tower.localized().gamma(w.context.level, st_eval(w))


def equal_after_localization(tower, w1, w2):
    """st-image comparison of leveled words in the localized units."""
    return _gamma_of_word(tower, w1) == _gamma_of_word(tower, w2)


def _sample_diag_actor(tower, rng, i, den, tries=64):
    fam = tower.family
    for _ in range(tries):
        num = fam.sample_component(i, i, rng)
        try:
            return DiagActor(tower, i, num, den)
        except NonInvertibleComponent:
            continue
    return None


def _random_actor(tower, rng, den):
    labels = list(tower.family.labels())
    i, j = rng.sample(labels, 2)
    if len(labels) >= 4 and rng.random() < 0.5:
        return RootActor(tower, i, j, tower.family.sample_component(i, j, rng), den)
    return _sample_diag_actor(tower, rng, i, den)


def tower_relation_suite(tower, rng, samples_per_level=50, mutate=None):
    """Scaled relations and action equivariance, level by level.

    mutate="drop-scale" checks (St3) against the unscaled product payload
    instead; the resulting mismatches are counted as violations, which is
    the point of the fault.  A zero level budget yields no checks and the
    status "inconclusive".
    """
    fam = tower.family
    if fam is None:
        raise SforgeError("relation suites need an idempotent family")
    require_blocks(fam, 2, "the tower relation suite")
    alg = tower.algebra
    labels = list(fam.labels())
    n = len(labels)
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
        per_level = {}
        for kind in ("St1", "St2", "St3"):
            if kind in ("St2", "St3") and n < 3:
                per_level[kind] = {"checked": 0, "violations": 0}
                continue
            checked = bad = 0
            for _ in range(samples_per_level):
                i, j, k2, l = random_relation_indices(fam, rng, kind)
                a = fam.sample_component(i, j, rng)
                if kind == "St1":
                    b = fam.sample_component(i, j, rng)
                elif kind == "St2":
                    b = fam.sample_component(k2, l, rng)
                else:
                    b = fam.sample_component(j, k2, rng)
                if kind == "St3" and mutate == "drop-scale":
                    lhs = commutator(gen(ctx, i, j, a), gen(ctx, j, k2, b))
                    ok = st_eval(lhs) == alg.mul(a, b)
                else:
                    ok = check_relation_instance(ctx, kind, i, j, k2, l, a, b).ok
                checked += 1
                bad += not ok
            per_level[kind] = {"checked": checked, "violations": bad}
            total += bad
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


def split_naturality_suite(tower, rng, samples=25, length=3):
    """Refinement of words commutes with the structure maps.

    Merges the last two blocks, samples words over the coarse family at a
    positive level, and compares split-then-map against map-then-split
    after reduction (zero cuts may drop on one side only).  Needs three
    blocks, so that the coarse family still has two.
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
        w = random_word(ctx, rng, length)
        lhs = f_alpha(tower.structure_map_word(w, k - 1), ref)
        rhs = tower.structure_map_word(f_alpha(w, ref), k - 1)
        checked += 1
        bad += reduce_word(lhs) != reduce_word(rhs)
    return {"checked": checked, "violations": bad}


def actor_apply_chain(tower, actors, w):
    """Apply actions right to left, as composition of conjugations reads."""
    for actor in reversed(actors):
        w = tower_ad(tower, actor, w)
    return w


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
    cases = {}

    def tally(name, ok):
        slot = cases.setdefault(name, {"checked": 0, "violations": 0})
        slot["checked"] += 1
        slot["violations"] += not ok

    def act(actors, w):
        return actor_apply_chain(tower, actors, w)

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
        prod = DiagActor(tower, i, fam.algebra.mul(u1.num, u2.num), 2 * du)
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
            tower, RootActor(tower, i, j, fam.algebra.mul(u1.num, v), 2 * du), w
        )
        tally("diag_root_left", equal_after_localization(tower, conj, direct))
        conj = act([uj, x, uj.inverse()], w)
        direct = tower_ad(
            tower,
            RootActor(tower, i, j, fam.algebra.mul(v, uj.inverse().num), du),
            w,
        )
        tally("diag_root_right", equal_after_localization(tower, conj, direct))

        a = fam.sample_component(i, j, rng)
        if a != fam.algebra.zero:
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
                RootActor(tower, i, k2, fam.algebra.mul(x.num, y.num), 2 * dv),
                w,
            )
            tally("root_st3", equal_after_localization(tower, comm, direct))

    checked = sum(c["checked"] for c in cases.values())
    bad = sum(c["violations"] for c in cases.values())
    return {"checked": checked, "violations": bad, "cases": cases}


def scaled_operator_suite(tower, rng, max_extra=2, exponents=(0, 1, 2), cap=256):
    """Budgeted equivalence of one-sided multiplication operators.

    For corner numerators a, the operator a/s over the (i, j) component is
    compared against a*s^e over s^(1+e); these must be equivalent with
    extra structure exponent at most max_extra.  A pair whose difference
    survives onto the power cycle of s is certified inequivalent.
    """
    fam = tower.family
    require_blocks(fam, 2, "the scaled operator suite")
    alg = tower.algebra
    labels = list(fam.labels())
    i, j = labels[0], labels[1]
    if fam.component_size(i, j) <= cap:
        carrier = list(fam.component_elements(i, j))
    else:
        carrier = [fam.sample_component(i, j, rng) for _ in range(64)]
    if fam.component_size(i, i) <= cap:
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
        for e in exponents:
            f = ScaledOperator(alg, "L", a, 1)
            g = ScaledOperator(alg, "L", tower.scalar_pow_mul(e, a), 1 + e)
            verdict = premorphism_equiv(tower, f, g, carrier)
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

    for a in corner:
        for b in corner:
            diff = alg.sub(a, b)
            probe = [alg.mul(tower.scalar_pow_mul(tower.stable_exponent(), diff), c) for c in carrier]
            if any(p != alg.zero for p in probe):
                f = ScaledOperator(alg, "L", a, 0)
                g = ScaledOperator(alg, "L", b, 0)
                verdict = premorphism_equiv(tower, f, g, carrier)
                if verdict.status == "inequivalent" and verdict.witness is not None:
                    report["inequivalent_found"] = True
                break
        if report["inequivalent_found"]:
            break
    return report
