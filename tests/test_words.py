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
    MatrixAlgebra,
    NonInvertibleComponent,
    NotUnipotentSupport,
    RankTooSmall,
    SforgeError,
    SideConditionViolated,
    Zmod,
    check_relation_instance,
    commutator,
    diag_act,
    equal_words,
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
    word,
    word_from_json,
    word_to_json,
)
from sforge import words as words_module
from sforge.words import relation_index_tuples, support_sign


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
                res = check_relation_instance(ctx, kind, i, j, k, l, a, b)
                assert res.ok, (ctx.scale, kind, i, j, k, l)
                assert res.relation == kind


def test_relation_side_conditions_raise(plain, rng):
    fam = plain.family
    a = fam.sample_component(1, 2, rng)
    b = fam.sample_component(2, 3, rng)
    with pytest.raises(SideConditionViolated):
        check_relation_instance(plain, "St2", 1, 2, 2, 3, a=a, b=b)
    with pytest.raises(SideConditionViolated):
        check_relation_instance(plain, "St3", 1, 2, 1, a=a, b=fam.sample_component(2, 1, rng))
    with pytest.raises(ValueError):
        check_relation_instance(plain, "St9", 1, 2, a=a, b=a)


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
    w1 = word(plain, [(1, 2, a), (3, 2, c)])
    w2 = word(plain, [(3, 2, c), (1, 2, a)])
    assert reduce_word(w1) == reduce_word(w2)
    # same slot merges, zeros drop
    alg = plain.algebra
    neg_a = fam.project(alg.neg(fam.to_matrix(a, 1, 2)), 1, 2)
    w3 = word(plain, [(1, 2, a), (1, 2, neg_a), (3, 2, c)])
    assert reduce_word(w3) == reduce_word(word(plain, [(3, 2, c)]))


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


def test_equal_words_grades(plain, rng):
    w = random_word(plain, rng, 3)
    assert equal_words(w, w) == (True, "word")
    up = random_word(plain, rng, 3, sign=1)
    shuffled = list(up.letters)
    rng.shuffle(shuffled)
    from sforge import Word

    v = Word(plain, tuple(shuffled))
    verdict, oracle = equal_words(up, v)
    assert verdict == (st_eval(up) == st_eval(v))
    assert oracle in ("word", "normal-form")
    mixed = up * random_word(plain, rng, 2, sign=-1)
    zero = plain.family.project(plain.algebra.zero, 1, 2)
    verdict, oracle = equal_words(mixed, mixed * word(plain, [(1, 2, zero)]))
    assert verdict and oracle in ("word", "st")


def _random_diagonal(fam, rng):
    units = [u for u in fam.algebra.base.elements() if fam.algebra.base.is_unit(u)]
    alg = fam.algebra
    comps = []
    for t in fam.labels():
        u = rng.choice(units)
        comps.append(alg.scalar_mul(u, fam.idempotent(t)))
    return DiagonalElement(fam, comps)


def test_diag_act_is_conjugation(plain, rng):
    alg = plain.algebra
    for _ in range(300):
        d = _random_diagonal(plain.family, rng)
        w = random_word(plain, rng, rng.randrange(5))
        g = d.embed()
        ginv = d.inverse().embed()
        assert alg.mul(g, ginv) == alg.one
        assert st_eval(diag_act(d, w)) == alg.mul(g, alg.mul(st_eval(w), ginv))


def test_diagonal_element_validation(m3z4):
    alg = m3z4.algebra
    bad = [m3z4.idempotent(t) for t in m3z4.labels()]
    bad[0] = alg.scalar_mul(alg.base.element(2), bad[0])  # 2 not a unit mod 4
    with pytest.raises(NonInvertibleComponent):
        DiagonalElement(m3z4, bad)
    with pytest.raises(NonInvertibleComponent):
        DiagonalElement(m3z4, bad[:2])
    d = DiagonalElement.one_slot(m3z4, 2, alg.scalar_mul(alg.base.element(3), m3z4.idempotent(2)))
    e = _random_diagonal(m3z4, random.Random(7))
    assert d.mul(e).embed() == alg.mul(d.embed(), e.embed())
    assert d.mul(d.inverse()) == DiagonalElement.identity(m3z4)


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
    coarse, ref = fam.merge(2, 3)
    ctx = Context(fam)
    w = random_word(ctx, rng, 2)
    with pytest.raises(RankTooSmall):
        g_alpha(w, ref)
    out = g_alpha(w, ref, epi_only=True)
    assert out.context.family == coarse


def test_express_as_commutators(m4f2, rng):
    ctx = Context(m4f2)
    alg = m4f2.algebra
    for _ in range(100):
        i, k = rng.sample(list(m4f2.labels()), 2)
        c = m4f2.sample_component(i, k, rng)
        w = express_as_commutators(ctx, i, k, c)
        assert st_eval(w) == alg.add(alg.one, m4f2.to_matrix(c, i, k))
        assert len(w.letters) % 4 == 0
    zero = m4f2.project(alg.zero, 1, 2)
    assert express_as_commutators(ctx, 1, 2, zero).letters == ()
    with pytest.raises(IndexClash):
        express_as_commutators(ctx, 1, 2, zero, j=2)


def test_express_as_commutators_needs_three_blocks():
    A = MatrixAlgebra(Zmod(2), 2)
    fam = IdempotentFamily.matrix_units(A)
    ctx = Context(fam)
    with pytest.raises(RankTooSmall):
        express_as_commutators(ctx, 1, 2, A.unit_matrix(0, 1, 1))


def test_word_json_roundtrip(plain, rng):
    for _ in range(25):
        w = random_word(plain, rng, rng.randrange(5))
        back = word_from_json(plain, word_to_json(w))
        assert back == w


BOUNDARY_FAMILIES = {
    "M3-Z4-units": (Zmod(4), 3, None),
    "M4-Z2-[[0,1],[2,3]]": (Zmod(2), 4, [[0, 1], [2, 3]]),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_FAMILIES))
def test_entry_points_refuse_payloads_outside_the_component(name):
    """gen takes block values and word_from_json takes the n x n wire
    matrix; both refuse a wire matrix with a nonzero entry off R_ij and a
    value tuple of the wrong length."""
    base, n, blocks = BOUNDARY_FAMILIES[name]
    A = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(A) if blocks is None else IdempotentFamily(A, blocks)
    ctx = Context(fam)
    rng = random.Random(11)
    one = base.element(1)
    for i, j in ((1, 2), (2, 1)):
        cells = set(fam.cells(i, j))
        a = fam.sample_component(i, j, rng)
        wire = word_to_json(gen(ctx, i, j, a))
        assert word_from_json(ctx, wire) == gen(ctx, i, j, a)
        assert wire["letters"][0]["a"] == A.element_to_json(fam.to_matrix(a, i, j))
        for r in range(n):
            for c in range(n):
                if (r, c) in cells:
                    continue
                bad = [list(row) for row in wire["letters"][0]["a"]]
                bad[r][c] = 1
                item = dict(wire["letters"][0], a=bad)
                with pytest.raises(SideConditionViolated):
                    word_from_json(ctx, dict(wire, letters=[item]))
        for values in (a[:-1], a + (one,), ()):
            with pytest.raises(SideConditionViolated):
                gen(ctx, i, j, values)
            item = dict(wire["letters"][0], a=list(values))
            with pytest.raises(SideConditionViolated):
                word_from_json(ctx, dict(wire, letters=[item]))


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


def _relation_sides(ctx, kind, i, j, k, l, a, b):
    """The two sides of a relation instance, built independently of
    check_relation_instance: the right side's payload is a sum or product
    of n x n matrices, cut back to block values."""
    alg = ctx.algebra
    fam = ctx.family
    if kind == "St1":
        c = alg.add(fam.to_matrix(a, i, j), fam.to_matrix(b, i, j))
        return gen(ctx, i, j, a) * gen(ctx, i, j, b), gen(ctx, i, j, fam.project(c, i, j))
    if kind == "St2":
        return commutator(gen(ctx, i, j, a), gen(ctx, k, l, b)), word(ctx, [])
    c = alg.mul(fam.to_matrix(a, i, j), fam.to_matrix(b, j, k))
    return commutator(gen(ctx, i, j, a), gen(ctx, j, k, b)), gen(ctx, i, k, fam.project(c, i, k))


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
    """On a common unipotent support, comparing normal forms (the oracle
    check_relation_instance used to run after st) agrees with comparing st
    images, on every instance of the exhaustive grid.  A corrupted (St3)
    right side, a*b plus a unit on its first cell, is flagged by
    check_relation_instance and, where it applies, by the normal forms."""
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
                    res = check_relation_instance(ctx, kind, i, j, k, l, a, b)
                    assert res.ok == st_equal
                    if not _common_support(lhs, rhs):
                        assert res.oracle == "st"
                        continue
                    nf_equal = u_normal_form(lhs) == u_normal_form(rhs)
                    assert nf_equal == st_equal
                    assert res.oracle == ("st+normal-form" if st_equal else "st")
                    graded += 1
                    if kind != "St3":
                        continue
                    r, c = fam.cells(i, k)[0]
                    ab = A.mul(fam.to_matrix(a, i, j), fam.to_matrix(b, j, k))
                    bad_c = fam.project(A.add(ab, A.unit_matrix(r, c)), i, k)
                    with monkeypatch.context() as mp:
                        mp.setattr(fam, "block_mul", lambda *args: bad_c)
                        res = check_relation_instance(ctx, kind, i, j, k, l, a, b)
                    assert res == (False, "st", "St3")
                    bad = gen(ctx, i, k, bad_c)
                    if _common_support(lhs, bad):
                        assert u_normal_form(lhs) != u_normal_form(bad)
                        corrupted += 1
        grid = exhaustive_relation_grid(ctx, kind)
        assert grid == {"checked": count, "violations": 0, "tuples_skipped": 0}
    assert graded > 0
    assert corrupted > 0 or fam.n < 3


def test_relation_checks_compute_no_normal_form(plain, rng, monkeypatch):
    """Relation checks and common-support word equality compare st images
    once; none of them computes a normal form."""

    def refuse(w):
        raise AssertionError("u_normal_form called")

    monkeypatch.setattr(words_module, "u_normal_form", refuse)
    fam = plain.family
    a = fam.sample_component(1, 2, rng)
    b = fam.sample_component(2, 3, rng)
    res = check_relation_instance(plain, "St3", 1, 2, 3, a=a, b=b)
    assert res == (True, "st+normal-form", "St3")
    res = check_relation_instance(plain, "St1", 1, 2, a=a, b=a)
    assert res == (True, "st+normal-form", "St1")
    out = sample_relations(plain, rng, ("St1", "St2", "St3"), 50)
    assert all(v == {"checked": 50, "violations": 0} for v in out.values())
    one = (plain.algebra.base.one,)
    x12 = gen(plain, 1, 2, one)
    x23 = gen(plain, 2, 3, one)
    assert equal_words(x12 * x23, x23 * x12) == (False, "normal-form")
    assert equal_words(commutator(x12, x23), gen(plain, 1, 3, one)) == (
        True,
        "normal-form",
    )


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
