import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sforge import (
    GF,
    Context,
    DiagonalElement,
    IdempotentFamily,
    IndexClash,
    Letter,
    MatrixAlgebra,
    NonInvertibleComponent,
    NotUnipotentSupport,
    RankTooSmall,
    SforgeError,
    SideConditionViolated,
    Word,
    Zmod,
    crossed_module_verify,
    diag_act,
    exhaustive_relation_grid,
    express_as_commutators,
    f_alpha,
    g_alpha,
    gen,
    random_relation_indices,
    random_word,
    reduce_word,
    sample_relations,
    st_eval,
    u_normal_form,
    word_to_json,
)
from sforge import words as words_module
from sforge.words import relation_index_tuples, support_sign


def commutator(w1, w2):
    """The word w1 w2 w1^-1 w2^-1."""
    return w1 * w2 * w1.inverse() * w2.inverse()


def _instance_relator(ctx, kind, i, j, k, l, a, b, fault=None):
    """The relator words._relator builds for one instance, from letters
    validated as gen validates them."""
    p, q = words_module._second_component(kind, i, j, k, l)
    x = words_module._signed(ctx.family, *gen(ctx, i, j, a).letters[0])
    y = words_module._signed(ctx.family, *gen(ctx, p, q, b).letters[0])
    return words_module._relator(ctx, kind, x, y, fault)


def _instance_holds(ctx, kind, i, j, k, l, a, b):
    """Does st send the instance's relator to the identity?"""
    return words_module._folds_to_unit(ctx, _instance_relator(ctx, kind, i, j, k, l, a, b))


@pytest.fixture
def plain(m3z4):
    return Context(m3z4)


@pytest.fixture
def homotope(m3z4):
    s = m3z4.algebra.base.element(2)
    return Context(m3z4, scale=s, level=1)


def test_st_is_multiplicative_plain(plain, rng):
    alg = plain.algebra
    for _ in range(100):
        w1 = random_word(plain, rng, rng.randrange(4))
        w2 = random_word(plain, rng, rng.randrange(4))
        assert st_eval(w1 * w2) == alg.mul(st_eval(w1), st_eval(w2))
        assert alg.mul(st_eval(w1), st_eval(w1.inverse())) == alg.one


def test_st_folds_circle_product_homotope(homotope, rng):
    alg = homotope.algebra
    s = homotope.scale
    for _ in range(100):
        w1 = random_word(homotope, rng, rng.randrange(4))
        w2 = random_word(homotope, rng, rng.randrange(4))
        x, y = st_eval(w1), st_eval(w2)
        circ = alg.add(alg.scalar_mul(s, alg.mul(x, y)), alg.add(x, y))
        assert st_eval(w1 * w2) == circ


def test_gen_validates_indices_and_payload(plain):
    fam = plain.family
    a = fam.sample_component(1, 2, random.Random(1))
    with pytest.raises(IndexClash):
        gen(plain, 1, 1, fam.idempotent(1))
    with pytest.raises(IndexClash):
        gen(plain, 0, 2, a)
    with pytest.raises(SideConditionViolated):
        gen(plain, 2, 1, a + a)
    with pytest.raises(SideConditionViolated):
        gen(plain, 1, 2, fam.to_matrix(a, 1, 2))
    with pytest.raises(ValueError):
        gen(plain, 1, 2, a, e=2)
    alg = plain.algebra
    inv = gen(plain, 1, 2, a, e=-1).letters[0].a
    assert fam.to_matrix(inv, 1, 2) == alg.neg(fam.to_matrix(a, 1, 2))
    assert st_eval(gen(plain, 1, 2, a) * gen(plain, 1, 2, a, e=-1)) == alg.one
    # zero payloads are legal letters
    assert st_eval(gen(plain, 1, 2, fam.project(alg.zero, 1, 2))) == alg.one


def test_relation_instances_sampled(plain, homotope, rng):
    for ctx in (plain, homotope):
        fam = ctx.family
        for kind in ("St1", "St2", "St3"):
            for _ in range(150):
                i, j, k, l = random_relation_indices(fam, rng, kind)
                if kind == "St1":
                    a = fam.sample_component(i, j, rng)
                    b = fam.sample_component(i, j, rng)
                elif kind == "St2":
                    a = fam.sample_component(i, j, rng)
                    b = fam.sample_component(k, l, rng)
                else:
                    a = fam.sample_component(i, j, rng)
                    b = fam.sample_component(j, k, rng)
                lhs, rhs = _relation_sides(ctx, kind, i, j, k, l, a, b)
                assert st_eval(lhs) == st_eval(rhs), (ctx.scale, kind, i, j, k, l)
                assert _instance_holds(ctx, kind, i, j, k, l, a, b)


def test_homotope_st3_needs_the_scale(homotope, rng):
    """The commutator payload picks up one factor of the scale."""
    alg = homotope.algebra
    fam = homotope.family
    hits = 0
    for _ in range(100):
        a = fam.sample_component(1, 2, rng)
        b = fam.sample_component(2, 3, rng)
        lhs = commutator(gen(homotope, 1, 2, a), gen(homotope, 2, 3, b))
        c = alg.mul(fam.to_matrix(a, 1, 2), fam.to_matrix(b, 2, 3))
        scaled = gen(homotope, 1, 3, fam.project(alg.scalar_mul(homotope.scale, c), 1, 3))
        plainly = gen(homotope, 1, 3, fam.project(c, 1, 3))
        assert st_eval(lhs) == st_eval(scaled)
        if st_eval(lhs) != st_eval(plainly):
            hits += 1
    assert hits > 0  # the unscaled form really is a different relation


def test_exhaustive_grid_counts(m3z4):
    ctx = Context(m3z4)
    res = exhaustive_relation_grid(ctx, "St1")
    assert res == {"checked": 6 * 16, "violations": 0, "tuples_skipped": 0}
    res3 = exhaustive_relation_grid(ctx, "St3")
    assert res3["checked"] == 6 * 16 and res3["violations"] == 0
    res2 = exhaustive_relation_grid(ctx, "St2")
    assert res2["violations"] == 0 and res2["checked"] == 18 * 16


def test_reduce_preserves_st_and_is_idempotent(plain, rng):
    alg = plain.algebra
    for _ in range(200):
        w = random_word(plain, rng, rng.randrange(6))
        r = reduce_word(w)
        assert st_eval(r) == st_eval(w)
        assert reduce_word(r) == r


def test_reduce_canonicalizes_commuting_shuffle(plain, rng):
    fam = plain.family
    a = fam.sample_component(1, 2, rng)
    c = fam.sample_component(3, 2, rng)  # (3,2) and (1,2) commute by St2
    x12, x32 = gen(plain, 1, 2, a), gen(plain, 3, 2, c)
    assert reduce_word(x12 * x32) == reduce_word(x32 * x12)
    # same slot merges, zeros drop
    alg = plain.algebra
    neg_a = fam.project(alg.neg(fam.to_matrix(a, 1, 2)), 1, 2)
    w3 = x12 * gen(plain, 1, 2, neg_a) * x32
    assert reduce_word(w3) == reduce_word(x32)


def test_normal_form_exact_on_unipotent_support(plain, rng):
    alg = plain.algebra
    for sign in (1, -1):
        for _ in range(100):
            w = random_word(plain, rng, rng.randrange(1, 6), sign=sign)
            nf = u_normal_form(w)
            assert st_eval(nf) == st_eval(w)
            assert u_normal_form(nf) == nf
            positions = [(L.i, L.j) for L in nf.letters]
            assert len(set(positions)) == len(positions)
    # shuffled supported words agree exactly in normal form
    for _ in range(50):
        w = random_word(plain, rng, 4, sign=1)
        perm = list(w.letters)
        rng.shuffle(perm)
        from sforge import Word

        v = Word(plain, tuple(perm))
        assert (u_normal_form(w) == u_normal_form(v)) == (st_eval(w) == st_eval(v))


def test_normal_form_refuses_mixed_and_homotope(plain, homotope, rng):
    up = random_word(plain, rng, 2, sign=1)
    down = random_word(plain, rng, 2, sign=-1)
    with pytest.raises(NotUnipotentSupport):
        u_normal_form(up * down)
    with pytest.raises(SforgeError):
        u_normal_form(random_word(homotope, rng, 2, sign=1))


def _random_diagonal(fam, rng):
    """A diagonal element of the matrix-unit family: one unit per 1 x 1 corner."""
    units = fam.algebra.base.units()
    return DiagonalElement(fam, [(rng.choice(units),) for _ in fam.labels()])


def test_diag_act_is_conjugation(plain, rng):
    alg = plain.algebra
    for _ in range(300):
        d = _random_diagonal(plain.family, rng)
        w = random_word(plain, rng, rng.randrange(5))
        g = d.embed()
        ginv = alg.inv(g)
        assert alg.mul(g, ginv) == alg.one
        assert st_eval(diag_act(d, w)) == alg.mul(g, alg.mul(st_eval(w), ginv))


GF4 = GF(2, [1, 1, 1])

# (family, blocks with a singular first corner, corner units)
DIAGONAL_CASES = [
    # 2 is not a unit mod 4
    (
        IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(4), 3)),
        [(2,), (1,), (1,)],
        [(1,), (3,), (1,)],
    ),
    # every entry of the 2 x 2 corner is a unit, but the corner is not
    (
        IdempotentFamily(MatrixAlgebra(Zmod(4), 3), [[0, 1], [2]]),
        [(1, 1, 1, 1), (1,)],
        [(1, 2, 1, 3), (3,)],
    ),
    (
        IdempotentFamily(MatrixAlgebra(GF4, 3), [[0, 1], [2]]),
        [(GF4.one,) * 4, (GF4.one,)],
        [(GF4.zero, GF4.one, GF4.one, (0, 1)), ((1, 1),)],
    ),
]


def test_diagonal_element_validation():
    for fam, singular, good in DIAGONAL_CASES:
        alg = fam.algebra
        with pytest.raises(NonInvertibleComponent, match="component 1 not a corner unit"):
            DiagonalElement(fam, singular)
        with pytest.raises(NonInvertibleComponent, match="one component per block"):
            DiagonalElement(fam, good[:-1])
        with pytest.raises(NonInvertibleComponent, match="component 2 not in its corner"):
            DiagonalElement(fam, [good[0], good[1] * 2, *good[2:]])
        d = DiagonalElement(fam, good)
        assert d.blocks == tuple(good)
        inverse = DiagonalElement(fam, d.inverse_blocks)
        assert alg.mul(d.embed(), inverse.embed()) == alg.one
        assert inverse.inverse_blocks == d.blocks
        assert d == DiagonalElement(fam, good) != DiagonalElement.identity(fam)
        identity = DiagonalElement.identity(fam)
        assert identity.inverse_blocks == identity.blocks
        assert identity.embed() == alg.one


def test_split_then_merge_is_word_identity(m4f2, rng):
    coarse, ref = m4f2.merge(3, 4)
    ctx = Context(coarse)
    for _ in range(200):
        w = random_word(ctx, rng, rng.randrange(5))
        back = g_alpha(f_alpha(w, ref), ref)
        assert reduce_word(back) == reduce_word(w)


def test_merge_then_split_preserves_st(m4f2, rng):
    coarse, ref = m4f2.merge(3, 4)
    ctx = Context(m4f2)
    alg = m4f2.algebra
    for _ in range(200):
        w = random_word(ctx, rng, rng.randrange(4))
        round_trip = f_alpha(g_alpha(w, ref), ref)
        assert st_eval(round_trip) == st_eval(w)


def test_split_and_merge_keep_st_on_multi_cell_blocks(rng):
    """Splitting and merging words between families whose blocks have
    several, interleaved positions moves block values cell by cell: both
    maps keep the st image, and the cuts agree with the dense projections."""
    A = MatrixAlgebra(Zmod(3), 5)
    fine = IdempotentFamily(A, [[0], [1, 3], [2], [4]])
    coarse, ref = fine.merge(2, 3)  # the merged class sits at positions 1, 2, 3
    for _ in range(100):
        w = random_word(Context(coarse), rng, rng.randrange(1, 5))
        split = f_alpha(w, ref)
        assert st_eval(split) == st_eval(w)
        for L in split.letters:
            I, J = ref.label_map[L.i], ref.label_map[L.j]
            dense = fine.to_matrix(L.a, L.i, L.j)
            assert ref.extend(L.a, L.i, L.j) == coarse.project(dense, I, J)
        v = random_word(Context(fine), rng, rng.randrange(1, 5))
        assert st_eval(g_alpha(v, ref)) == st_eval(v)
        assert reduce_word(g_alpha(f_alpha(w, ref), ref)) == reduce_word(w)


def test_merge_map_needs_rank(rng):
    A = MatrixAlgebra(Zmod(2), 3)
    fam = IdempotentFamily.matrix_units(A)
    _, ref = fam.merge(2, 3)
    ctx = Context(fam)
    w = random_word(ctx, rng, 2)
    with pytest.raises(RankTooSmall):
        g_alpha(w, ref)


EXPANSION_FAMILIES = {
    "M4-F2-units": (Zmod(2), 4, None),
    "M5-Z6-[[0],[1],[2,4],[3]]": (Zmod(6), 5, [[0], [1], [2, 4], [3]]),
    "M5-GF4-[[0,3],[1],[2,4]]": (GF(2, [1, 1, 1]), 5, [[0, 3], [1], [2, 4]]),
}


@pytest.mark.parametrize("name", sorted(EXPANSION_FAMILIES))
def test_express_as_commutators(name):
    """st of the expansion of x_ik(c) is 1 + c for every c in R_ik, every
    (i, k) and every auxiliary j: the one place a letter is expanded
    through witnesses, which the commutator path, the merge map and the
    tower's opposite root all read."""
    base, n, blocks = EXPANSION_FAMILIES[name]
    A = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(A) if blocks is None else IdempotentFamily(A, blocks)
    ctx = Context(fam)
    labels = list(fam.labels())
    for i in labels:
        for k in labels:
            if i == k:
                continue
            for j in labels:
                if j in (i, k):
                    continue
                for c in fam.component_elements(i, k):
                    w = express_as_commutators(ctx, i, k, c, j)
                    assert st_eval(w) == A.add(A.one, fam.to_matrix(c, i, k)), (i, j, k, c)
                    assert len(w.letters) % 4 == 0
    zero = fam.project(A.zero, 1, 2)
    assert express_as_commutators(ctx, 1, 2, zero).letters == ()
    with pytest.raises(IndexClash):
        express_as_commutators(ctx, 1, 2, zero, j=2)


def test_express_as_commutators_needs_three_blocks():
    A = MatrixAlgebra(Zmod(2), 2)
    fam = IdempotentFamily.matrix_units(A)
    ctx = Context(fam)
    with pytest.raises(RankTooSmall):
        express_as_commutators(ctx, 1, 2, A.unit_matrix(0, 1, 1))


BOUNDARY_FAMILIES = {
    "M3-Z4-units": (Zmod(4), 3, None),
    "M4-Z2-[[0,1],[2,3]]": (Zmod(2), 4, [[0, 1], [2, 3]]),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_FAMILIES))
def test_entry_points_refuse_payloads_outside_the_component(name):
    """gen takes block values and refuses a value tuple of the wrong
    length; word_to_json writes the letter's n x n matrix."""
    base, n, blocks = BOUNDARY_FAMILIES[name]
    A = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(A) if blocks is None else IdempotentFamily(A, blocks)
    ctx = Context(fam)
    rng = random.Random(11)
    one = base.element(1)
    for i, j in ((1, 2), (2, 1)):
        a = fam.sample_component(i, j, rng)
        wire = word_to_json(gen(ctx, i, j, a))
        assert wire["letters"][0]["a"] == A.element_to_json(fam.to_matrix(a, i, j))
        for values in (a[:-1], a + (one,), ()):
            with pytest.raises(SideConditionViolated):
                gen(ctx, i, j, values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=2))
def test_additivity_matches_integer_model(vals):
    A = MatrixAlgebra(Zmod(4), 3)
    fam = IdempotentFamily.matrix_units(A)
    ctx = Context(fam)
    pay = [
        fam.project(A.scalar_mul(A.base.element(v), A.unit_matrix(0, 1, 1)), 1, 2)
        for v in vals
    ]
    lhs = gen(ctx, 1, 2, pay[0]) * gen(ctx, 1, 2, pay[1])
    total = A.scalar_mul(A.base.element(sum(vals)), A.unit_matrix(0, 1, 1))
    rhs = gen(ctx, 1, 2, fam.project(total, 1, 2))
    assert st_eval(lhs) == st_eval(rhs)
    assert u_normal_form(lhs) == u_normal_form(rhs)


def _relation_sides(ctx, kind, i, j, k, l, a, b, fault=None):
    """The two sides of a relation instance, built independently of the
    relators words._relator builds: the right side's payload is a sum or
    product of n x n matrices, cut back to block values, and the (St3)
    one is scaled in a homotope context.  fault corrupts the (St3) right
    side as sample_relations describes."""
    alg = ctx.algebra
    fam = ctx.family
    if kind == "St1":
        c = alg.add(fam.to_matrix(a, i, j), fam.to_matrix(b, i, j))
        return gen(ctx, i, j, a) * gen(ctx, i, j, b), gen(ctx, i, j, fam.project(c, i, j))
    if kind == "St2":
        return commutator(gen(ctx, i, j, a), gen(ctx, k, l, b)), Word(ctx)
    lhs = commutator(gen(ctx, i, j, a), gen(ctx, j, k, b))
    if fault == "st3-zero":
        return lhs, Word(ctx)
    c = alg.mul(fam.to_matrix(a, i, j), fam.to_matrix(b, j, k))
    if ctx.scale is not None and fault != "drop-scale":
        c = alg.scalar_mul(ctx.scale, c)
    return lhs, gen(ctx, i, k, fam.project(c, i, k))


def _common_support(w1, w2):
    s1, s2 = support_sign(w1), support_sign(w2)
    return s1 is not None and s2 is not None and (s1 == s2 or 0 in (s1, s2))


RELATION_GRIDS = {
    "M3-Z4-units": (Zmod(4), 3, None),
    "M3-GF4-units": (GF(2, [1, 1, 1]), 3, None),
    "M3-Z2-[[0,1],[2]]": (Zmod(2), 3, [[0, 1], [2]]),
}


@pytest.mark.parametrize("name", sorted(RELATION_GRIDS))
def test_relation_st_comparison_matches_normal_form_oracle(name, monkeypatch):
    """On a common unipotent support, comparing normal forms agrees with
    comparing st images, on every instance of the exhaustive grid, and so
    does folding the instance's relator (_relator, _folds_to_unit).  The
    relator lies in one triangle exactly when the two sides share a
    unipotent support.  A corrupted (St3) right side, a*b plus a unit on
    its first cell, is flagged by the relator's fold and, where it
    applies, by the normal forms."""
    base, n, blocks = RELATION_GRIDS[name]
    A = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(A) if blocks is None else IdempotentFamily(A, blocks)
    ctx = Context(fam)
    graded = corrupted = 0
    for kind in ("St1", "St2", "St3"):
        count = 0
        for i, j, k, l in relation_index_tuples(fam, kind):
            second = {"St1": (i, j), "St2": (k, l), "St3": (j, k)}[kind]
            for a in fam.component_elements(i, j):
                for b in fam.component_elements(*second):
                    count += 1
                    lhs, rhs = _relation_sides(ctx, kind, i, j, k, l, a, b)
                    st_equal = st_eval(lhs) == st_eval(rhs)
                    relator = _instance_relator(ctx, kind, i, j, k, l, a, b)
                    assert words_module._folds_to_unit(ctx, relator) == st_equal
                    common = _common_support(lhs, rhs)
                    assert common == (support_sign(Word(ctx, relator)) is not None)
                    if not common:
                        continue
                    nf_equal = u_normal_form(lhs) == u_normal_form(rhs)
                    assert nf_equal == st_equal
                    graded += 1
                    if kind != "St3":
                        continue
                    r, c = fam.cells(i, k)[0]
                    ab = A.mul(fam.to_matrix(a, i, j), fam.to_matrix(b, j, k))
                    bad_c = fam.project(A.add(ab, A.unit_matrix(r, c)), i, k)
                    with monkeypatch.context() as mp:
                        mp.setattr(fam, "block_mul", lambda *args: bad_c)
                        assert not _instance_holds(ctx, kind, i, j, k, l, a, b)
                    bad = gen(ctx, i, k, bad_c)
                    if _common_support(lhs, bad):
                        assert u_normal_form(lhs) != u_normal_form(bad)
                        corrupted += 1
        grid = exhaustive_relation_grid(ctx, kind)
        assert grid == {"checked": count, "violations": 0, "tuples_skipped": 0}
    assert graded > 0
    assert corrupted > 0 or fam.n < 3


def test_relation_checks_compute_no_normal_form(plain, rng, monkeypatch):
    """The relation sampler and the crossed-module suite, whose
    cm2_inner_word is graded "normal-form", compare st images; neither
    computes a normal form, through any binding of u_normal_form."""

    def refuse(*args):
        raise AssertionError("normal form computed")

    monkeypatch.setattr(words_module, "u_normal_form", refuse)
    monkeypatch.setattr(words_module, "_position_order", refuse)
    out = sample_relations(plain, rng, ("St1", "St2", "St3"), 50)
    assert all(v == {"checked": 50, "violations": 0} for v in out.values())
    report = crossed_module_verify(plain.family, rng, samples=20)
    assert report["verdict"] == "pass"
    assert report["axioms"]["cm2_inner_word"] == {"checked": 20, "oracle": "normal-form", "violations": 0}


INVERSE_CASES = {
    "M3-Z12-[[0,1],[2]]": Zmod(12),
    "M3-GF9-[[0,1],[2]]": GF(3, [1, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(INVERSE_CASES))
def test_inverse_negates_only_the_letter_cells(name, monkeypatch):
    """Inversion negates each letter's block values; it negates no n x n
    matrix and builds none."""
    A = MatrixAlgebra(INVERSE_CASES[name], 3)
    fam = IdempotentFamily(A, [[0, 1], [2]])
    ctx = Context(fam)
    rng = random.Random(7)
    words = [random_word(ctx, rng, rng.randrange(1, 8)) for _ in range(40)]
    want = [
        tuple(
            (L.i, L.j, fam.project(A.neg(fam.to_matrix(L.a, L.i, L.j)), L.i, L.j))
            for L in reversed(w.letters)
        )
        for w in words
    ]

    def refuse(*args):
        raise AssertionError("n x n matrix built or negated")

    with monkeypatch.context() as mp:
        mp.setattr(MatrixAlgebra, "neg", refuse)
        mp.setattr(IdempotentFamily, "to_matrix", refuse)
        inverses = [w.inverse() for w in words]
    for w, inv, expected in zip(words, inverses, want):
        assert tuple(inv.letters) == expected
        assert A.mul(st_eval(w), st_eval(inv)) == A.one


AGREEMENT_GRIDS = {
    # base ring, n, blocks (None for matrix units), homotope scale
    "M3-Z4-units": (Zmod(4), 3, None, 2),
    "M3-GF4-units": (GF(2, [1, 1, 1]), 3, None, 2),
    "M4-Z2-[[0,1],[2,3]]": (Zmod(2), 4, [[0, 1], [2, 3]], 2),
    # a 2-position block: the generic kernel on multi-cell letters, at a unit scale
    "M4-GF4-[[0,1],[2],[3]]": (GF(2, [1, 1, 1]), 4, [[0, 1], [2], [3]], [0, 1]),
}


def _record_relators(monkeypatch):
    """Wrap words._relator; each call appends (kind, x, y, fault, verdict),
    x and y the two letters and verdict whether st_eval of the whole
    relator word is st_eval of the empty word."""
    seen = []
    original = words_module._relator

    def recording(ctx, kind, first, second, fault=None):
        letters = original(ctx, kind, first, second, fault)
        ok = st_eval(Word(ctx, letters)) == st_eval(Word(ctx))
        seen.append((kind, first[0], second[0], fault, ok))
        return letters

    monkeypatch.setattr(words_module, "_relator", recording)
    return seen


def _instance_indices(kind, x, y):
    if kind == "St1":
        return x.i, x.j, None, None
    if kind == "St2":
        return x.i, x.j, y.i, y.j
    return x.i, x.j, y.j, None


def _reference_verdict(ctx, kind, x, y, fault):
    """Two-sided st comparison of the instance's dense reference sides,
    with the (St3) right side corrupted as the fault says."""
    i, j, k, l = _instance_indices(kind, x, y)
    lhs, rhs = _relation_sides(ctx, kind, i, j, k, l, x.a, y.a, fault)
    return st_eval(lhs) == st_eval(rhs)


@pytest.mark.parametrize("name", sorted(AGREEMENT_GRIDS))
def test_grid_and_sampler_agree_with_check_relation_instance(name, monkeypatch):
    """Every instance the exhaustive grid and the sampler check, plain and
    homotope, gets the verdict of comparing st of its two dense reference
    sides, and so does its relator built from validated letters and
    folded by _folds_to_unit; under st3-zero and
    drop-scale the sampler's verdicts are those of the dense sides with
    the (St3) right side corrupted.  Each relator's own verdict, st_eval
    of the whole relator word, agrees too, and the grid counts exactly
    the failing ones.  The grid visits each (a, b) pair of each index
    tuple exactly once, in order."""
    base, n, blocks, scale = AGREEMENT_GRIDS[name]
    A = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(A) if blocks is None else IdempotentFamily(A, blocks)
    kinds = ("St1", "St2", "St3") if fam.n >= 3 else ("St1", "St2")
    seen = _record_relators(monkeypatch)
    flagged = 0
    for ctx in (Context(fam), Context(fam, scale=base.element(scale), level=1)):
        for kind in kinds:
            del seen[:]
            grid = exhaustive_relation_grid(ctx, kind)
            got = list(seen)
            want = [
                (a, b)
                for i, j, k, l in relation_index_tuples(fam, kind)
                for a in fam.component_elements(i, j)
                for b in fam.component_elements(*words_module._second_component(kind, i, j, k, l))
            ]
            assert [(x.a, y.a) for _, x, y, _, _ in got] == want
            verdicts = [_reference_verdict(ctx, kind, x, y, None) for _, x, y, _, _ in got]
            assert verdicts == [ok for *_, ok in got]
            assert grid == {"checked": len(want), "violations": verdicts.count(False), "tuples_skipped": 0}
            for (_, x, y, _, _), ok in zip(got, verdicts):
                i, j, k, l = _instance_indices(kind, x, y)
                assert _instance_holds(ctx, kind, i, j, k, l, x.a, y.a) == ok
        for fault in (None, "st3-zero", "drop-scale"):
            del seen[:]
            out = sample_relations(ctx, random.Random(name), kinds, 60, fault)
            sampled = list(seen)
            for kind in kinds:
                got = [rec for rec in sampled if rec[0] == kind]
                assert len(got) == out[kind]["checked"] == 60
                verdicts = [_reference_verdict(ctx, kind, x, y, fault) for _, x, y, _, _ in got]
                assert verdicts == [ok for *_, ok in got]
                assert out[kind]["violations"] == verdicts.count(False)
                flagged += verdicts.count(False)
    assert flagged > 0 or fam.n < 3


def test_grid_prefix_columns_do_not_leak_between_second_payloads(monkeypatch):
    """Negative control for the grid's shared columns of st(x): a relator
    corrupted for exactly one (x, y) pair of one (St3) tuple, by dropping
    its last letter, is the grid's only violation, and the next pair of
    the same x, folded onto the same shared columns, still holds."""
    fam = IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(4), 3))
    ctx = Context(fam)
    # [x_12(1), x_23(1)] = x_13(1), so dropping x_13(-1) breaks the instance
    target = (Letter(1, 2, (1,)), Letter(2, 3, (1,)))
    pairs, verdicts = [], []
    relator, folds_to_unit = words_module._relator, words_module._folds_to_unit

    def corrupted(ctx, kind, first, second, fault=None):
        letters = relator(ctx, kind, first, second, fault)
        pairs.append((first[0], second[0]))
        return letters[:-1] if pairs[-1] == target else letters

    def recording(*args, **kwargs):
        verdicts.append(folds_to_unit(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(words_module, "_relator", corrupted)
    monkeypatch.setattr(words_module, "_folds_to_unit", recording)
    grid = exhaustive_relation_grid(ctx, "St3")
    assert grid == {"checked": 6 * 4 * 4, "violations": 1, "tuples_skipped": 0}
    assert len(pairs) == len(verdicts) == grid["checked"]
    t = pairs.index(target)
    assert [p for p, ok in zip(pairs, verdicts) if not ok] == [target]
    assert pairs[t + 1] == (target[0], Letter(2, 3, (2,))) and verdicts[t + 1]


EQUAL_WORDS_RINGS = {"Z6": (Zmod(6), 2), "GF4": (GF(2, [1, 1, 1]), [0, 1])}


@pytest.mark.parametrize("name", sorted(EQUAL_WORDS_RINGS))
def test_equal_words_agrees_with_st_images(name):
    """Folding w1 * w2^-1 onto the identity's columns (_folds_to_unit)
    decides what comparing st(w1) with st(w2) does, plain and homotope,
    on random words of unequal lengths, on the empty word, and on pairs
    equal by (St3) that reduce_word does not identify.  w1 * w2^-1 lies in one triangle exactly on a common
    unipotent support; in a plain context its normal forms compare there
    as the st images do."""
    base, scale = EQUAL_WORDS_RINGS[name]
    fam = IdempotentFamily(MatrixAlgebra(base, 4), [[0, 1], [2], [3]])
    rng = random.Random(name)
    graded = set()
    for ctx in (Context(fam), Context(fam, scale=base.element(scale), level=1)):
        pairs = []
        for _ in range(40):
            sign = rng.choice((None, 1, -1))
            w1 = random_word(ctx, rng, rng.randrange(4), sign=sign)
            w2 = random_word(ctx, rng, rng.randrange(4), sign=sign)
            i, j, k = rng.sample(list(fam.labels()), 3)
            a, b = fam.sample_component(i, j, rng), fam.sample_component(j, k, rng)
            lhs, rhs = _relation_sides(ctx, "St3", i, j, k, None, a, b)
            pairs += [(w1, w2), (w1, Word(ctx)), (Word(ctx), w2), (w1 * lhs, w1 * rhs)]
        pairs.append((Word(ctx), Word(ctx)))
        for w1, w2 in pairs:
            quotient = w1 * w2.inverse()
            verdict = words_module._folds_to_unit(ctx, quotient.letters)
            assert verdict == (st_eval(w1) == st_eval(w2)), (w1, w2)
            common = support_sign(quotient) is not None
            assert common == _common_support(w1, w2)
            if common and ctx.scale is None:
                assert (u_normal_form(w1) == u_normal_form(w2)) == verdict
            graded.add((ctx.scale is None and common, verdict))
    assert graded == {(True, True), (True, False), (False, True), (False, False)}


def test_grid_builds_each_letter_once_per_tuple(monkeypatch):
    """The grid builds the letter of each component element once per index
    tuple, |R_ij| + |R_second| letters, not one pair of letters per
    (a, b) pair."""
    fam = IdempotentFamily(MatrixAlgebra(Zmod(2), 4), [[0], [1, 2], [3]])
    ctx = Context(fam)
    calls = []
    original = words_module._signed

    def counted(fam, i, j, a):
        calls.append((i, j, tuple(a)))
        return original(fam, i, j, a)

    monkeypatch.setattr(words_module, "_signed", counted)
    for kind in ("St1", "St2", "St3"):
        del calls[:]
        grid = exhaustive_relation_grid(ctx, kind)
        want = []
        pairs = 0
        for i, j, k, l in relation_index_tuples(fam, kind):
            second = words_module._second_component(kind, i, j, k, l)
            want += [(i, j, a) for a in fam.component_elements(i, j)]
            want += [(*second, b) for b in fam.component_elements(*second)]
            pairs += fam.component_size(i, j) * fam.component_size(*second)
        assert calls == want
        assert grid["checked"] == pairs
        assert len(calls) < 2 * pairs


def _sample_relations_per_instance(ctx, rng, kinds, samples, fault=None):
    """The sampler's per-instance path, as the oracle for sample_relations:
    the same draws, each instance's side conditions checked, its relator
    built by _instance_relator, which validates both payloads, and
    decided by _folds_to_unit."""
    fam = ctx.family
    unit = words_module._unit_columns(ctx)
    out = {}
    for kind in kinds:
        bad = 0
        for _ in range(samples):
            i, j, k, l = random_relation_indices(fam, rng, kind)
            a = fam.sample_component(i, j, rng)
            b = fam.sample_component(*words_module._second_component(kind, i, j, k, l), rng)
            assert _meets_side_conditions(kind, i, j, k, l)
            letters = _instance_relator(ctx, kind, i, j, k, l, a, b, fault)
            bad += not words_module._folds_to_unit(ctx, letters, unit=unit)
        out[kind] = {"checked": samples, "violations": bad}
    return out


SAMPLER_FAMILIES = {
    # base ring, n, blocks (None for matrix units), homotope scale
    "M4-Z12-units": (Zmod(12), 4, None, 2),
    "M4-GF4-[[0,1],[2],[3]]": (GF(2, [1, 1, 1]), 4, [[0, 1], [2], [3]], [0, 1]),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_FAMILIES))
def test_sample_relations_draws_as_the_per_instance_path(name):
    """sample_relations, which builds each relator from its draws without
    validating them, returns the per-instance path's counts and leaves the
    rng in the same state, for St1, St2 and St3 under every fault, plain
    and homotope; both faults are flagged in the homotope context."""
    base, n, blocks, scale = SAMPLER_FAMILIES[name]
    A = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(A) if blocks is None else IdempotentFamily(A, blocks)
    kinds = ("St1", "St2", "St3")
    flagged = set()
    for ctx in (Context(fam), Context(fam, scale=base.element(scale), level=1)):
        for fault in (None, "st3-zero", "drop-scale"):
            rng, oracle_rng = random.Random(name), random.Random(name)
            got = sample_relations(ctx, rng, kinds, 80, fault)
            assert got == _sample_relations_per_instance(ctx, oracle_rng, kinds, 80, fault)
            assert rng.getstate() == oracle_rng.getstate()
            if got["St3"]["violations"]:
                flagged.add((ctx.scale is None, fault))
    assert {(False, "st3-zero"), (False, "drop-scale")} <= flagged
    assert all(fault is not None for _, fault in flagged)


class _ScriptedDraws:
    """An rng whose sample() returns the scripted label tuples in order and
    raises IndexError once the script is used up."""

    def __init__(self, script):
        self.script = list(script)

    def sample(self, population, k):
        got = self.script.pop(0)
        assert len(got) == k and set(got) <= set(population)
        return list(got)


def _meets_side_conditions(kind, i, j, k, l):
    """The side conditions of a relation on its index tuple: i != j for
    all three, k != l, j != k and i != l for (St2), and i, j, k distinct
    for (St3); unused indices are None."""
    if kind == "St1":
        return i != j and k is None and l is None
    if kind == "St2":
        return i != j and k != l and j != k and i != l
    return kind == "St3" and len({i, j, k}) == 3 and l is None


def test_relation_index_tuples_meet_the_side_conditions():
    """On a 4-block family, relation_index_tuples is exactly the set of
    label tuples past the side conditions of each relation, and every
    tuple random_relation_indices draws is one of them; both refuse an
    unknown relation.  The grid and the sampler build letters from these
    tuples without checking them again."""
    fam = IdempotentFamily(MatrixAlgebra(Zmod(2), 5), [[0], [1], [2, 4], [3]])
    labels = list(fam.labels())
    rng = random.Random(4)
    for kind, arity in (("St1", 2), ("St2", 4), ("St3", 3)):
        tuples = relation_index_tuples(fam, kind)
        padded = [t + (None,) * (4 - arity) for t in itertools.product(labels, repeat=arity)]
        assert tuples == [t for t in padded if _meets_side_conditions(kind, *t)]
        drawn = {random_relation_indices(fam, rng, kind) for _ in range(400)}
        assert drawn <= set(tuples)
    for bad in ("St4", None):
        with pytest.raises(ValueError):
            relation_index_tuples(fam, bad)
        with pytest.raises(ValueError):
            random_relation_indices(fam, rng, bad)


def test_random_relation_indices_meet_the_side_conditions():
    """Every tuple random_relation_indices can return, over every script of
    label draws, passes the side conditions, which sample_relations does
    not check per instance, and together they are relation_index_tuples.
    An St2 script whose draws are rejected runs out on the redraw."""
    for blocks in ([[0], [1], [2], [3]], [[0], [1], [2, 4], [3], [5]]):
        fam = IdempotentFamily(MatrixAlgebra(Zmod(2), sum(map(len, blocks))), blocks)
        labels = list(fam.labels())
        for kind, draws in (("St1", (2,)), ("St2", (2, 2)), ("St3", (3,))):
            returned = set()
            rejected = 0
            scripts = itertools.product(*(itertools.permutations(labels, k) for k in draws))
            for script in scripts:
                try:
                    t = random_relation_indices(fam, _ScriptedDraws(script), kind)
                except IndexError:
                    rejected += 1
                    continue
                assert _meets_side_conditions(kind, *t)
                returned.add(t)
            assert returned == set(relation_index_tuples(fam, kind))
            assert rejected > 0 if kind == "St2" else rejected == 0
