import itertools
import random

import pytest

from sforge import (
    GF,
    DiagActor,
    HomotopeTower,
    IdempotentFamily,
    Letter,
    LevelBudgetExceeded,
    MatrixAlgebra,
    NoArrow,
    NonInvertibleComponent,
    PowerSequenceTooLong,
    RankTooSmall,
    RootActor,
    Word,
    Zmod,
    actor_relation_suite,
    ad_equivariance_check,
    equal_after_localization,
    gen,
    premorphism_equiv,
    random_element,
    random_word,
    scaled_operator_suite,
    split_naturality_suite,
    st_eval,
    tower_ad,
    tower_relation_suite,
)
from sforge import tower as tower_module
from sforge.tower import presented_source


@pytest.fixture
def tower():
    A = MatrixAlgebra(Zmod(12), 4)
    fam = IdempotentFamily.matrix_units(A)
    return HomotopeTower(fam, 2, k_max=4)


def test_scale_matches_modular_powers(tower):
    for k in range(50):
        assert tower.scale(k) == pow(2, k, 12)
    assert tower.stable_exponent() == 2


def test_power_sequence_is_bounded_on_construction():
    """3 generates the units of Z/65537, so its powers repeat after
    exactly POWER_SEQUENCE_MAX = 2^16 terms and are tabulated; 3 has
    order 2^61 - 2 in Z/(2^61 - 1), and that tower is refused when it is
    built, before any level is asked for."""
    assert tower_module.POWER_SEQUENCE_MAX == 2 ** 16
    fam = IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(65537), 2))
    t = HomotopeTower(fam, 3, k_max=1)
    assert len(t._power_table()) == 2 ** 16 and t.stable_exponent() == 0
    assert t.scale(2 ** 16 + 5) == pow(3, 5, 65537)
    wide = IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(2 ** 61 - 1), 2))
    with pytest.raises(PowerSequenceTooLong, match="s = 3"):
        HomotopeTower(wide, 3, k_max=1)


def test_structure_map_words_scale_payloads(tower, rng):
    for _ in range(30):
        w = random_word(tower.context(3), rng, 3)
        v = tower.structure_map_word(w, 1)
        assert v.context.level == 1
        fam = tower.family
        for L, M in zip(w.letters, v.letters):
            assert (M.i, M.j) == (L.i, L.j)
            assert fam.to_matrix(M.a, M.i, M.j) == tower.algebra.scalar_mul(
                tower.scale(2), fam.to_matrix(L.a, L.i, L.j)
            )
        assert equal_after_localization(
            tower, tower.structure_map_word(v, 0), tower.structure_map_word(w, 0)
        )
    with pytest.raises(NoArrow):
        tower.structure_map_word(random_word(tower.context(1), rng, 1), 2)


def _level_mul(tower, k, x, y):
    """The level-k homotope product s^k * xy of two n x n matrices."""
    alg = tower.algebra
    return alg.scalar_mul(tower.scale(k), alg.mul(x, y))


def test_structure_map_respects_products(tower, rng):
    alg = tower.algebra
    s = tower.scale(1)
    for _ in range(100):
        k = rng.randrange(1, 5)
        x, y = random_element(alg, rng), random_element(alg, rng)
        lhs = alg.scalar_mul(s, _level_mul(tower, k, x, y))
        rhs = _level_mul(tower, k - 1, alg.scalar_mul(s, x), alg.scalar_mul(s, y))
        assert lhs == rhs


def _two_block_tower(m, s, k_max=6):
    """The tower of M(2, Z/m) over its units family; its operators multiply
    the one value of R_12 by the one value of R_11."""
    fam = IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(m), 2))
    return HomotopeTower(fam, s, k_max=k_max)


def _carrier(t):
    return list(t.family.component_elements(1, 2))


def test_premorphism_identical_operators_agree_exactly():
    t = _two_block_tower(12, 2)
    v = premorphism_equiv(t, 1, 2, ((5,), 1), ((5,), 1), _carrier(t))
    assert v and v.status == "equivalent" and v.extra_level == 0


def test_premorphism_equivalence_needs_extra_maps():
    t = _two_block_tower(12, 2)
    v = premorphism_equiv(t, 1, 2, ((3,), 0), ((0,), 0), _carrier(t))
    assert v.status == "equivalent"
    assert v.extra_level == 2  # 2^2 * 3 = 0 mod 12, 2 * 3 = 6 is not zero


def test_premorphism_inequivalence_has_stable_witness():
    t = _two_block_tower(12, 2)
    v = premorphism_equiv(t, 1, 2, ((1,), 0), ((0,), 0), _carrier(t))
    assert v.status == "inequivalent"
    b, residual = v.witness
    assert not t.family.is_zero(residual)
    # residual sits on the power cycle: one full period multiplies back to itself
    period = len(t._power_table()) - t.stable_exponent()
    r = residual
    for _ in range(period):
        r = t.scale_block(1, r)
    assert r == residual


def test_premorphism_budget_exhaustion_is_inconclusive():
    t = _two_block_tower(32, 2, k_max=2)
    f, g = ((1,), 0), ((0,), 0)
    v = premorphism_equiv(t, 1, 2, f, g, _carrier(t))
    assert v.status == "inconclusive" and not v
    # the same pair certifies with a budget past the nilpotency degree
    assert premorphism_equiv(t, 1, 2, f, g, _carrier(t), budget=5).status == "equivalent"


def test_localized_transfer_maps(tower, rng):
    loc = tower.localized()
    assert loc.warning is None
    R, L = tower.scalar, loc.scalar_loc.ring
    for _ in range(200):
        a, b = random.Random(rng.random()).randrange(12), rng.randrange(12)
        pa, pb = loc.scalar_loc.psi(a), loc.scalar_loc.psi(b)
        assert loc.scalar_loc.psi(R.mul(a, b)) == L.mul(pa, pb)
        assert loc.scalar_loc.psi(R.add(a, b)) == L.add(pa, pb)
    for x in L.elements():
        assert loc.scalar_loc.psi(loc.scalar_loc.lift(x)) == x
    assert L.mul(loc.s_unit, loc.s_pow_inv(1)) == L.one


def gamma(tower, k, q):
    """1 + psi(s^k * q), the localized image of a level-k element q of the
    n x n matrices, entry by entry: the oracle for LocalizedTower.image."""
    loc = tower.localized()
    s = tower.scale(k)
    mul = tower.scalar.scalar_mul
    psi = loc.scalar_loc.psi
    base = loc.algebra.base
    rows = [[psi(mul(s, x)) for x in row] for row in q]
    for t, row in enumerate(rows):
        row[t] = base.add(base.one, row[t])
    return tuple(map(tuple, rows))


def test_gamma_turns_circle_into_product(tower, rng):
    """gamma sends the level-k circle product x + y + s^k xy to the
    product of the images: the identity LocalizedTower.image rests on."""
    loc = tower.localized()
    alg = tower.algebra
    for _ in range(100):
        k = rng.randrange(5)
        x, y = random_element(alg, rng), random_element(alg, rng)
        circ = alg.add(alg.add(x, y), _level_mul(tower, k, x, y))
        lhs = gamma(tower, k, circ)
        rhs = loc.algebra.mul(gamma(tower, k, x), gamma(tower, k, y))
        assert lhs == rhs


# (base, n, blocks or None for the units family, s, k_max); each k_max is
# the least budget whose levels reach every power of s
IMAGE_CASES = {
    "M4-Z12-s2": (Zmod(12), 4, None, 2, 3),  # 1, 2, 4, 8; localizes to Z/3
    "M4-GF4-s[0,1]": (GF(2, [1, 1, 1]), 4, None, (0, 1), 2),  # s is a unit of order 3
    "M5-Z6-[[0],[1],[2,4],[3]]-s2": (Zmod(6), 5, [[0], [1], [2, 4], [3]], 2, 2),  # 1, 2, 4
}


@pytest.mark.parametrize("name", sorted(IMAGE_CASES))
def test_localized_image_is_gamma_of_st(name):
    """LocalizedTower.image(w), one plain fold over the localized ring of
    the letters psi(s^k a), equals gamma of the homotope st image at the
    word's level k, for every word of one and two letters (zero payloads
    included) at every level 0..k_max."""
    base, n, blocks, s, k_max = IMAGE_CASES[name]
    A = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(A) if blocks is None else IdempotentFamily(A, blocks)
    tower = HomotopeTower(fam, s, k_max=k_max)
    assert {tower.scale(k) for k in range(k_max + 1)} == {tower.scale(k) for k in range(50)}
    loc = tower.localized()
    letters = [
        Letter(i, j, a)
        for i in fam.labels()
        for j in fam.labels()
        if i != j
        for a in fam.component_elements(i, j)
    ]
    words = [(L,) for L in letters] + list(itertools.product(letters, repeat=2))
    for k in range(tower.k_max + 1):
        ctx = tower.context(k)
        for w in words:
            word = Word(ctx, w)
            assert loc.image(word) == gamma(tower, k, st_eval(word)), (k, w)


def test_identity_actor_fixes_words(tower, rng):
    fam = tower.family
    d = DiagActor(tower, 2, fam.project(fam.idempotent(2), 2, 2), 0)
    for _ in range(30):
        w = random_word(tower.context(3), rng, 3)
        assert tower_ad(tower, d, w) == w


def _refuse(*args):
    raise AssertionError("dense n x n inverse or product")


def test_equivariance_scan_all_levels(tower, rng, monkeypatch):
    from sforge.tower import _random_actor

    checked = 0
    for _ in range(500):
        k_out = rng.randrange(tower.k_max)
        den = rng.randrange(2)
        actor = _random_actor(tower, rng, den)
        if actor is None:
            continue
        w = random_word(tower.context(k_out + den), rng, rng.randrange(1, 4))
        # both sides are compared without an n x n inverse or product,
        # and without conjugating an image
        with monkeypatch.context() as mp:
            mp.setattr(MatrixAlgebra, "inv", _refuse)
            mp.setattr(MatrixAlgebra, "mul", _refuse)
            mp.setattr(tower_module.LocalizedTower, "conj", _refuse)
            holds, out = ad_equivariance_check(tower, actor, w)
        assert holds
        assert out.context.level == k_out
        checked += 1
    assert checked > 400


OPPOSITE_ROOT_CASES = {
    "M4-Z12-s2": (Zmod(12), 2),
    "M4-GF4-s[0,1]": (GF(2, [1, 1, 1]), (0, 1)),
}


@pytest.mark.parametrize("name", sorted(OPPOSITE_ROOT_CASES))
def test_opposite_root_equivariance_grid(name):
    """Every root actor x_ij(v/s^den), v over all of R_ij and den in
    {0, 1}, against every one-letter word x_ji(a) at level k_max, a over
    all of R_ji: ad_equivariance_check holds.

    Both sides read the same presented source, the letters of
    express_as_commutators(ctx, j, i, a), so a fault in that expansion
    cancels out here; test_words.py::test_express_as_commutators checks
    the expansion against the letter itself.
    """
    base, s = OPPOSITE_ROOT_CASES[name]
    fam = IdempotentFamily.matrix_units(MatrixAlgebra(base, 4))
    tower = HomotopeTower(fam, s, k_max=4)
    ctx = tower.context(tower.k_max)
    checked = 0
    for i in fam.labels():
        for j in fam.labels():
            if i == j:
                continue
            words = [gen(ctx, j, i, a) for a in fam.component_elements(j, i)]
            for den in (0, 1):
                for v in fam.component_elements(i, j):
                    actor = RootActor(tower, i, j, v, den)
                    for w in words:
                        holds, out = ad_equivariance_check(tower, actor, w)
                        assert holds, (actor, w)
                        assert out.context.level == tower.k_max - den
                        checked += 1
    assert checked == 12 * 2 * base.size ** 2


def _dense_conj(tower, actor, x):
    """The dense reference for LocalizedTower.conj: the actor's n x n
    image g over the localized scalars, inverted by MatrixAlgebra.inv,
    and g x g^-1 as two n x n products."""
    loc = tower.localized()
    alg = loc.algebra
    j = actor.j if isinstance(actor, RootActor) else actor.i
    psi = loc.scalar_loc.psi
    num = tuple(tuple(map(psi, row)) for row in tower.family.to_matrix(actor.block, actor.i, j))
    scaled = alg.scalar_mul(loc.s_pow_inv(actor.den), num)
    if isinstance(actor, RootActor):
        g = alg.add(alg.one, scaled)
    else:
        g = alg.add(alg.sub(alg.one, loc.family.idempotent(actor.i)), scaled)
    return alg.mul(g, alg.mul(x, alg.inv(g)))


CONJ_CASES = {
    "M4-Z12-s2": (Zmod(12), 4, None, 2),  # localizes to Z/3
    "M4-Z12-s3": (Zmod(12), 4, None, 3),  # localizes to Z/4
    "M4-Z8-s2": (Zmod(8), 4, None, 2),  # localizes to the zero ring
    "M4-GF4-s[0,1]": (GF(2, [1, 1, 1]), 4, None, (0, 1)),
    "M5-Z6-[[0],[1],[2,4],[3]]-s2": (Zmod(6), 5, [[0], [1], [2, 4], [3]], 2),
}


@pytest.mark.parametrize("name", sorted(CONJ_CASES))
def test_conj_matches_the_dense_reference(name, monkeypatch):
    """conj on block values agrees with the dense conjugation by the
    inverted n x n image, for every diagonal and root actor over the whole
    value grid of its component, at denominators 0, 1 and 2, on a sampled
    x; conj itself inverts and multiplies no n x n matrix, and a root
    actor goes through the row and column kernels, with no block_mul."""
    base, n, blocks, s = CONJ_CASES[name]
    A = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(A) if blocks is None else IdempotentFamily(A, blocks)
    tower = HomotopeTower(fam, s, k_max=4)
    loc = tower.localized()
    actors = []
    for den in range(3):
        for i in fam.labels():
            for a in fam.component_elements(i, i):
                try:
                    actors.append(DiagActor(tower, i, a, den))
                except NonInvertibleComponent:
                    pass
            for j in fam.labels():
                if j != i:
                    actors.extend(RootActor(tower, i, j, a, den) for a in fam.component_elements(i, j))
    rng = random.Random(len(actors))
    xs = [random_element(loc.algebra, rng) for _ in actors]
    # diagonal actors first: root actors run with block_mul refused too
    pairs = sorted(zip(actors, xs), key=lambda p: isinstance(p[0], RootActor))
    n_diag = sum(isinstance(actor, DiagActor) for actor in actors)

    def no_block_mul(*args):
        raise AssertionError("block_mul in a root actor's conjugation")

    with monkeypatch.context() as mp:
        mp.setattr(MatrixAlgebra, "inv", _refuse)
        mp.setattr(MatrixAlgebra, "mul", _refuse)
        got = [loc.conj(actor, x) for actor, x in pairs[:n_diag]]
        mp.setattr(IdempotentFamily, "block_mul", no_block_mul)
        got += [loc.conj(actor, x) for actor, x in pairs[n_diag:]]
    for (actor, x), y in zip(pairs, got):
        assert y == _dense_conj(tower, actor, x), actor
    kinds = {type(actor) for actor in actors}
    assert kinds == {DiagActor, RootActor}


BLOCKS = [[0], [1], [2, 4], [3]]

# (base, n, blocks or None for the units family, s)
INTERTWINE_CASES = {
    "M4-Z12-s2": (Zmod(12), 4, None, 2),  # localizes to Z/3
    "M5-GF4-[[0],[1],[2,4],[3]]-s[0,1]": (GF(2, [1, 1, 1]), 5, BLOCKS, (0, 1)),
    "M5-Z6-[[0],[1],[2,4],[3]]-s2": (Zmod(6), 5, BLOCKS, 2),  # localizes to Z/3
}


def _intertwine_tower(name, k_max=3):
    base, n, blocks, s = INTERTWINE_CASES[name]
    A = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(A) if blocks is None else IdempotentFamily(A, blocks)
    return HomotopeTower(fam, s, k_max=k_max)


@pytest.mark.parametrize("name", sorted(INTERTWINE_CASES))
def test_intertwines_matches_conjugating_the_image(name):
    """LocalizedTower.intertwines(actor, out, src), image(out) g == g
    image(src) on folded columns, is image(out) == conj(actor, image(src))
    for a diagonal actor at every label and a root actor at every pair, at
    every source level 0..k_max and den in {0, 1}.  Each source word ends
    in a letter at the root actor's opposite root (j, i), and is compared
    raw and presented; each is paired with its acted word, that word
    without its last letter, and a random word, so both verdicts occur for
    both kinds of actor."""
    tower = _intertwine_tower(name)
    fam = tower.family
    loc = tower.localized()
    rng = random.Random(name)
    labels = list(fam.labels())
    verdicts = set()
    for level in range(tower.k_max + 1):
        ctx = tower.context(level)
        for den in (0, 1):
            if den > level:
                continue
            actors = [tower_module._sample_diag_actor(tower, rng, i, den) for i in labels]
            assert None not in actors
            actors += [
                RootActor(tower, i, j, fam.sample_component(i, j, rng), den)
                for i in labels
                for j in labels
                if i != j
            ]
            for actor in actors:
                j = actor.j if isinstance(actor, RootActor) else rng.choice(
                    [t for t in labels if t != actor.i]
                )
                i = actor.i
                for _ in range(2):
                    w = random_word(ctx, rng, 2) * Word(ctx, (Letter(j, i, fam.sample_component(j, i, rng)),))
                    presented = presented_source(tower, actor, w)
                    out = tower_ad(tower, actor, presented)
                    outs = [out, Word(out.context, out.letters[:-1])]
                    outs.append(random_word(out.context, rng, 3))
                    for src in (w, presented):
                        for o in outs:
                            got = loc.intertwines(actor, o, src)
                            want = loc.image(o) == loc.conj(actor, loc.image(src))
                            assert got == want, (actor, o, src)
                            verdicts.add((type(actor), got))
    assert verdicts == {(DiagActor, True), (DiagActor, False), (RootActor, True), (RootActor, False)}


def _ones(fam, i, j):
    """The block values of R_ij that are all one."""
    return (fam.algebra.base.one,) * len(fam.cells(i, j))


@pytest.mark.parametrize("name", sorted(INTERTWINE_CASES))
def test_equivariance_flags_a_dropped_root_cross_letter(name, monkeypatch):
    """Mutant: tower_ad drops the letter x_il(va) (x_lj(-av)) a root actor
    x_ij(v) adds to a source letter x_jl(a) (x_li(a)).  With v and a all
    ones on labels 1 and 2, singletons in every case, the dropped letter's
    localized image is nonzero, so ad_equivariance_check flags the mutant
    at every source level, at den 0 and 1, for every third label l; the
    same words hold unmutated."""
    tower = _intertwine_tower(name)
    fam = tower.family
    original = tower_module.tower_ad

    def dropped(tower, actor, w):
        out = original(tower, actor, w)
        return Word(out.context, out.letters[1:])

    i, j = 1, 2
    checked = 0
    for level in range(tower.k_max + 1):
        ctx = tower.context(level)
        for den in range(min(level, 1) + 1):
            actor = RootActor(tower, i, j, _ones(fam, i, j), den)
            for l in fam.labels():
                if l in (i, j):
                    continue
                for w in (gen(ctx, j, l, _ones(fam, j, l)), gen(ctx, l, i, _ones(fam, l, i))):
                    assert len(tower_ad(tower, actor, w)) == 2
                    assert ad_equivariance_check(tower, actor, w)[0]
                    with monkeypatch.context() as mp:
                        mp.setattr(tower_module, "tower_ad", dropped)
                        assert not ad_equivariance_check(tower, actor, w)[0], (level, den, w)
                    checked += 1
    assert checked == 2 * (fam.n - 2) * (2 * tower.k_max + 1)


@pytest.mark.parametrize("name", sorted(INTERTWINE_CASES))
def test_equivariance_flags_unscaled_letters_off_the_diagonal_block(name, monkeypatch):
    """Mutant: the diagonal branch of tower_ad leaves the letters off block
    i unscaled, instead of scaling them by s^den.  psi(s) != 1 in every
    case, so ad_equivariance_check flags it on x_jl(1) at every source
    level 1..k_max with den 1, for every j, l off i; the same words hold
    unmutated."""
    tower = _intertwine_tower(name)
    fam = tower.family
    original = tower_module.tower_ad

    def unscaled(tower, actor, w):
        out = original(tower, actor, w)
        kept = [
            src if actor.i not in (L.i, L.j) else L for L, src in zip(out.letters, w.letters)
        ]
        return Word(out.context, tuple(kept))

    checked = 0
    for i in fam.labels():
        actor = DiagActor(tower, i, fam.project(fam.algebra.one, i, i), 1)
        for level in range(1, tower.k_max + 1):
            ctx = tower.context(level)
            for j in fam.labels():
                for l in fam.labels():
                    if i in (j, l) or j == l:
                        continue
                    w = gen(ctx, j, l, _ones(fam, j, l))
                    assert ad_equivariance_check(tower, actor, w)[0]
                    with monkeypatch.context() as mp:
                        mp.setattr(tower_module, "tower_ad", unscaled)
                        assert not ad_equivariance_check(tower, actor, w)[0], (i, level, w)
                    checked += 1
    assert checked == fam.n * tower.k_max * (fam.n - 1) * (fam.n - 2)


def test_actor_validation():
    A3 = MatrixAlgebra(Zmod(12), 3)
    f3 = IdempotentFamily.matrix_units(A3)
    t3 = HomotopeTower(f3, 2, k_max=3)
    with pytest.raises(RankTooSmall):
        RootActor(t3, 1, 2, f3.sample_component(1, 2, random.Random(0)), 0)
    # 3 dies in the localization at 2 of Z/12, so d_i(3) has no inverse there
    with pytest.raises(NonInvertibleComponent):
        DiagActor(t3, 1, (3,), 0)
    # a numerator with more values than the corner has cells is refused
    with pytest.raises(NonInvertibleComponent):
        DiagActor(t3, 1, (1, 0), 0)
    # 2 becomes a unit after localization even though it is not one mod 12
    ok = DiagActor(t3, 1, (2,), 0)
    assert ok.i == 1
    assert A3.base.mul(2, ok.inv_block[0]) % 3 == 1


def test_actor_denominator_needs_level_headroom(tower, rng):
    fam = tower.family
    actor = RootActor(tower, 1, 2, fam.sample_component(1, 2, rng), 1)
    w = random_word(tower.context(0), rng, 2)
    with pytest.raises(LevelBudgetExceeded):
        tower_ad(tower, actor, w)


def test_tower_relation_suite_clean(tower, rng):
    report = tower_relation_suite(tower, rng, samples_per_level=60)
    assert report["status"] == "checked"
    assert report["violations"] == 0
    assert set(report["levels"]) == {str(k) for k in range(5)}
    for level in report["levels"].values():
        for slot in level.values():
            assert slot["violations"] == 0
            assert slot["checked"] > 0


def test_tower_relation_suite_detects_dropped_scale(tower, rng):
    report = tower_relation_suite(tower, rng, samples_per_level=40, mutate="drop-scale")
    assert report["violations"] > 0
    flagged = [
        lv["St3"]["violations"] for k, lv in report["levels"].items() if k != "0"
    ]
    assert sum(flagged) > 0


def test_zero_level_budget_is_inconclusive():
    A = MatrixAlgebra(Zmod(12), 4)
    fam = IdempotentFamily.matrix_units(A)
    t = HomotopeTower(fam, 2, k_max=0)
    report = tower_relation_suite(t, random.Random(0), samples_per_level=10)
    assert report["status"] == "inconclusive"
    assert report["violations"] == 0
    assert any("budget" in w for w in report["warnings"])


def test_collapsing_scalars_carry_a_warning():
    A = MatrixAlgebra(Zmod(8), 4)
    fam = IdempotentFamily.matrix_units(A)
    t = HomotopeTower(fam, 2, k_max=2)
    loc = t.localized()
    assert loc.warning is not None
    # every comparison degenerates to true in the zero ring
    rng = random.Random(1)
    w1 = random_word(t.context(1), rng, 2)
    w2 = random_word(t.context(1), rng, 2)
    assert equal_after_localization(t, w1, w2)


def test_split_naturality_suite_clean(tower, rng):
    report = split_naturality_suite(tower, rng, samples=40)
    assert report == {"checked": 40, "violations": 0}


def test_actor_relation_suite_clean(tower, rng):
    report = actor_relation_suite(tower, rng, samples=40)
    assert report["violations"] == 0
    assert report["checked"] > 0
    for name in (
        "diag_product",
        "diag_commute",
        "diag_root_left",
        "diag_root_right",
        "same_root_stable",
        "root_st2",
        "root_st3",
    ):
        assert name in report["cases"], name
        assert report["cases"][name]["violations"] == 0


def test_nilpotent_scale_probe_makes_no_product(monkeypatch):
    """With s^stable_exponent = 0 every inequivalence probe s^e (a - b) c
    is zero, so the probe skips every corner pair of the whole 256-element
    corner without a product, and finds no inequivalent pair."""
    from sforge.tower import _inequivalent_pair

    A = MatrixAlgebra(Zmod(4), 4)
    fam = IdempotentFamily(A, [[0, 1], [2, 3]])
    t = HomotopeTower(fam, 2, k_max=2)
    assert t.scale(t.stable_exponent()) == 0
    corner = list(fam.component_elements(1, 1))
    carrier = list(fam.component_elements(1, 2))
    monkeypatch.setattr(MatrixAlgebra, "mul", _refuse)
    monkeypatch.setattr(fam, "block_mul", _refuse)
    assert not _inequivalent_pair(t, 1, 2, corner, carrier)


def test_scaled_operator_suite_budgets(tower, rng):
    report = scaled_operator_suite(tower, rng)
    assert report["pairs_checked"] == 36  # 12 corner values, 3 exponents
    assert report["violations"] == 0
    assert report["extra_exponent_max"] <= 2
    assert report["identities"] == {"checked": 200, "violations": 0}
    assert report["inequivalent_found"]


def test_operator_suite_multiplies_matrices_only_in_its_identities(tower, rng, monkeypatch):
    """The operators multiply block values: the suite's only n x n products
    are the 12 of each of its 200 associativity identities, and it scales
    no n x n matrix."""
    calls = {"mul": 0, "scalar_mul": 0}

    def counted(name):
        fn = getattr(MatrixAlgebra, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(MatrixAlgebra, "mul", counted("mul"))
    monkeypatch.setattr(MatrixAlgebra, "scalar_mul", counted("scalar_mul"))
    report = scaled_operator_suite(tower, rng)
    assert report["identities"]["checked"] == 200
    assert calls == {"mul": 12 * 200, "scalar_mul": 0}


def _dense_premorphism_equiv(tower, f, g, carrier, budget=None):
    """The dense reference for premorphism_equiv: f and g are pairs
    (num, shift) with num an n x n matrix, the carrier holds n x n
    matrices, and each operator is an n x n product.  Returns (status,
    extra level, witness)."""
    alg = tower.algebra
    if budget is None:
        budget = tower.k_max

    def pow_mul(e, a):
        return alg.scalar_mul(tower.scale(e), a)

    (a, fs), (c, gs) = f, g
    d = max(fs, gs)
    horizon = len(tower._power_table()) + 1
    worst = 0
    exhausted = False
    for b in carrier:
        x = alg.mul(a, pow_mul(d - fs, b))
        y = alg.mul(c, pow_mul(d - gs, b))
        h = alg.sub(x, y)
        m = 0
        while h != alg.zero and m < horizon:
            h = alg.scalar_mul(tower.s, h)
            m += 1
        if h != alg.zero:
            residual = pow_mul(tower.stable_exponent(), alg.sub(x, y))
            return "inequivalent", None, (b, residual)
        if m > budget:
            exhausted = True
        worst = max(worst, m)
    if exhausted:
        return "inconclusive", None, None
    return "equivalent", worst, None


def _dense_inequivalent_pair(tower, corner, carrier):
    """The dense reference for _inequivalent_pair, on n x n matrices."""
    alg = tower.algebra
    stable = tower.scale(tower.stable_exponent())
    for a in corner:
        for b in corner:
            diff = alg.scalar_mul(stable, alg.sub(a, b))
            if diff == alg.zero:
                continue
            if any(alg.mul(diff, c) != alg.zero for c in carrier):
                status, _, witness = _dense_premorphism_equiv(tower, (a, 0), (b, 0), carrier)
                if status == "inequivalent" and witness is not None:
                    return True
                break
    return False


EQ, INC, INEQ = "equivalent", "inconclusive", "inequivalent"

# (base, n, blocks or None for the units family, s, the (i, j) operator
# components compared, the verdicts that arise); each corner R_ii and
# carrier R_ij is exhaustive.  A nilpotent s certifies no inequivalence, and
# a unit s leaves nothing inconclusive.
OPERATOR_CASES = {
    "M4-Z4-[[0,1],[2,3]]-s2": (Zmod(4), 4, [[0, 1], [2, 3]], 2, [(1, 2)], {EQ, INC}),
    "M4-Z12-s2": (Zmod(12), 4, None, 2, [(1, 2), (3, 1)], {EQ, INC, INEQ}),
    "M4-Z12-s3": (Zmod(12), 4, None, 3, [(1, 2), (3, 1)], {EQ, INEQ}),
    "M4-GF4-s[0,1]": (GF(2, [1, 1, 1]), 4, None, (0, 1), [(1, 2), (3, 1)], {EQ, INEQ}),
    "M4-Z12-[[0,1],[2],[3]]-s3": (
        Zmod(12), 4, [[0, 1], [2], [3]], 3, [(2, 1), (2, 3)], {EQ, INEQ}
    ),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_CASES))
def test_block_operators_match_the_dense_loop(name):
    """premorphism_equiv and _inequivalent_pair on block values give the
    dense n x n loop's verdicts, extra levels, witnesses and probe results.

    Every corner value a meets the whole carrier once: at even positions t
    in the suite's pair a/s against s^e a/s^(1+e), with e cycling through
    0, 1, 2; at odd ones against the reversed corner's value b, at shifts
    (t mod 4 // 2, 0) and budget 1, where inconclusive and inequivalent
    verdicts arise.
    """
    from sforge.tower import _inequivalent_pair

    base, n, blocks, s, components, want = OPERATOR_CASES[name]
    A = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(A) if blocks is None else IdempotentFamily(A, blocks)
    t = HomotopeTower(fam, s, k_max=2)
    statuses = set()
    for i, j in components:
        corner = list(fam.component_elements(i, i))
        carrier = list(fam.component_elements(i, j))
        dense_corner = [fam.to_matrix(a, i, i) for a in corner]
        dense_carrier = [fam.to_matrix(b, i, j) for b in carrier]
        for pos, (a, a_dense) in enumerate(zip(corner, dense_corner)):
            if pos % 2 == 0:
                e = pos // 2 % 3
                f, f_dense = (a, 1), (a_dense, 1)
                g = (t.scale_block(e, a), 1 + e)
                g_dense = (A.scalar_mul(t.scale(e), a_dense), 1 + e)
                budget = None
            else:
                shift = pos % 4 // 2
                f, f_dense = (a, shift), (a_dense, shift)
                g, g_dense = (corner[-1 - pos], 0), (dense_corner[-1 - pos], 0)
                budget = 1
            got = premorphism_equiv(t, i, j, f, g, carrier, budget)
            status, extra, witness = _dense_premorphism_equiv(
                t, f_dense, g_dense, dense_carrier, budget
            )
            assert (got.status, got.extra_level) == (status, extra), (i, j, pos)
            if witness is not None:
                b, residual = got.witness
                assert (fam.to_matrix(b, i, j), fam.to_matrix(residual, i, j)) == witness
            statuses.add(status)
        assert _inequivalent_pair(t, i, j, corner, carrier) == _dense_inequivalent_pair(
            t, dense_corner, dense_carrier
        )
    assert statuses == want
