"""Differential tests: the block-value letter kernels against dense matrix products.

A letter carries the block values of its payload, and st_eval (through
MatrixAlgebra.fold_columns) and u_normal_form update only the columns
(rows) a letter can touch.  The
references below put each payload back into its n x n matrix and
evaluate the same words with full products in the matrix algebra, the
way words were evaluated before the kernels.
"""

import itertools
import random

import pytest

from sforge import (
    GF,
    Context,
    DiagonalElement,
    IdempotentFamily,
    Letter,
    MatrixAlgebra,
    NotUnipotentSupport,
    Word,
    Zmod,
    diag_act,
    random_element,
    random_word,
    st_eval,
    u_normal_form,
)
from sforge.words import _position_order, support_sign

SCALES = (0, 2, 3)


def dense(fam, L):
    """The n x n matrix of a letter's payload."""
    return fam.to_matrix(L.a, L.i, L.j)


def dense_st(w):
    """st(w) by full products: m(1 + a) per letter, or the homotope fold."""
    fam = w.context.family
    alg = fam.algebra
    s = w.context.scale
    if s is None:
        m = alg.one
        for L in w.letters:
            m = alg.mul(m, alg.add(alg.one, dense(fam, L)))
        return m
    acc = alg.zero
    for L in w.letters:
        a = dense(fam, L)
        acc = alg.add(alg.scalar_mul(s, alg.mul(acc, a)), alg.add(acc, a))
    return acc


def dense_normal_form(w, sign):
    """u_normal_form with the residual peeled as (1 - a) * residual."""
    fam = w.context.family
    alg = fam.algebra
    residual = dense_st(w)
    out = []
    for i, j in _position_order(fam, sign):
        a = fam.to_matrix(fam.project(residual, i, j), i, j)
        if a != alg.zero:
            out.append(Letter(i, j, fam.project(a, i, j)))
            residual = alg.mul(alg.sub(alg.one, a), residual)
    assert residual == alg.one
    return Word(w.context, tuple(out))


def scalar(ring, k):
    """The scale numbered k: k mod m in Z/m; over GF(p^d), the polynomial
    whose coefficients are the base-p digits of k."""
    if isinstance(ring, GF):
        return ring.element([(k // ring.p ** e) % ring.p for e in range(ring.deg)])
    return ring.element(k)


def dense_inverse_letters(w):
    """The letters of w^-1: reversed, each payload matrix negated."""
    fam = w.context.family
    alg = fam.algebra
    return tuple(
        Letter(L.i, L.j, fam.project(alg.neg(dense(fam, L)), L.i, L.j))
        for L in reversed(w.letters)
    )


def assert_kernels_match(fam, w):
    alg = fam.algebra
    plain = Word(Context(fam), w.letters)
    assert st_eval(plain) == dense_st(plain)
    assert plain.inverse().letters == dense_inverse_letters(plain)
    for k in SCALES:
        ctx = Context(fam, scale=scalar(alg.base, k))
        scaled = Word(ctx, w.letters)
        assert st_eval(scaled) == dense_st(scaled)
    sign = support_sign(plain)
    if sign is None:
        with pytest.raises(NotUnipotentSupport):
            u_normal_form(plain)
    else:
        assert u_normal_form(plain) == dense_normal_form(plain, sign)


def all_letters(fam):
    return [
        Letter(i, j, a)
        for i in fam.labels()
        for j in fam.labels()
        if i != j
        for a in fam.component_elements(i, j)
    ]


M2Z4 = IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(4), 2))
M2GF4 = IdempotentFamily.matrix_units(MatrixAlgebra(GF(2, [1, 1, 1]), 2))
M3Z2_BLOCKS = IdempotentFamily(MatrixAlgebra(Zmod(2), 3), [[0, 1], [2]])


@pytest.mark.parametrize("fam", [M2Z4, M2GF4, M3Z2_BLOCKS], ids=["M2Z4", "M2GF4", "M3Z2-blocks"])
def test_every_short_word_matches_dense(fam):
    letters = all_letters(fam)
    ctx = Context(fam)
    for L in letters:
        assert_kernels_match(fam, Word(ctx, (L,)))
    for pair in itertools.product(letters, repeat=2):
        assert_kernels_match(fam, Word(ctx, pair))


@pytest.mark.parametrize(
    "fam",
    [
        IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(12), 4)),
        # M(3, M(2, Z/4)), written as M(6, Z/4) with three 2 x 2 blocks
        IdempotentFamily(MatrixAlgebra(Zmod(4), 6), [[0, 1], [2, 3], [4, 5]]),
    ],
    ids=["M4Z12", "M3-M2Z4"],
)
def test_random_eight_letter_words_match_dense(fam):
    ctx = Context(fam)
    rng = random.Random(104729)
    for _ in range(30):
        assert_kernels_match(fam, random_word(ctx, rng, 8))
        sign = rng.choice((1, -1))
        assert_kernels_match(fam, random_word(ctx, rng, 8, sign=sign))


def test_projection_reads_the_cached_cells():
    fam = M3Z2_BLOCKS
    alg = fam.algebra
    def cut(m, i, j):
        return fam.to_matrix(fam.project(m, i, j), i, j)

    for m in itertools.islice(alg.elements(), 0, None, 7):
        assert cut(m, (1, 2), (2,)) == alg.add(cut(m, 1, 2), cut(m, 2, 2))


@pytest.mark.parametrize("fam", [M2GF4, IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(12), 4))])
def test_words_never_fall_back_to_matrix_products(fam, monkeypatch):
    ctx = Context(fam)
    rng = random.Random(7)
    upper = random_word(ctx, rng, 6, sign=1)
    mixed = random_word(ctx, rng, 6)
    expected = [st_eval(mixed), u_normal_form(upper)]
    scaled = Word(Context(fam, scale=scalar(fam.algebra.base, 2)), mixed.letters)
    expected.append(st_eval(scaled))

    def refuse(*args):
        raise AssertionError("dense matrix arithmetic on the word path")

    monkeypatch.setattr(MatrixAlgebra, "mul", refuse)
    monkeypatch.setattr(MatrixAlgebra, "add", refuse)
    assert [st_eval(mixed), u_normal_form(upper), st_eval(scaled)] == expected


def corner_unit_diagonals(fam):
    """Every diagonal element, found by the dense unit test: u in R_tt is
    a corner unit exactly when u + (1 - e_t) is invertible."""
    alg = fam.algebra
    per_corner = []
    for t in fam.labels():
        outside = alg.sub(alg.one, fam.idempotent(t))
        units = []
        for u in fam.component_elements(t, t):
            U = fam.to_matrix(u, t, t)
            if alg.is_unit(alg.add(U, outside)):
                units.append(u)
        per_corner.append(units)
    return [DiagonalElement(fam, comps) for comps in itertools.product(*per_corner)]


GRIDS = {
    "M3-Z4-units": IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(4), 3)),
    "M3-GF4-units": IdempotentFamily.matrix_units(MatrixAlgebra(GF(2, [1, 1, 1]), 3)),
    "M3-Z2-[[0,1],[2]]": M3Z2_BLOCKS,
    # two 2 x 2 blocks: four cells per payload, so their order matters
    "M4-Z2-[[0,1],[2,3]]": IdempotentFamily(MatrixAlgebra(Zmod(2), 4), [[0, 1], [2, 3]]),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_block_kernels_match_dense_reference(name):
    """Every block-value kernel against the dense n x n reference, on
    exhaustive grids: plain and homotope st_eval, Word.inverse and
    u_normal_form on every word of one or two letters, diag_act on every
    letter under every diagonal element, and the block product behind the
    (St3) right side on every pair of components."""
    fam = GRIDS[name]
    alg = fam.algebra
    ctx = Context(fam)
    letters = all_letters(fam)
    for L in letters:
        assert_kernels_match(fam, Word(ctx, (L,)))
    for pair in itertools.product(letters, repeat=2):
        assert_kernels_match(fam, Word(ctx, pair))

    diagonals = corner_unit_diagonals(fam)
    assert diagonals
    for d in diagonals:
        g = d.embed()
        g_inv = alg.inv(g)
        for L in letters:
            conj = alg.mul(g, alg.mul(dense(fam, L), g_inv))
            want = Letter(L.i, L.j, fam.project(conj, L.i, L.j))
            assert fam.to_matrix(want.a, L.i, L.j) == conj
            assert diag_act(d, Word(ctx, (L,))).letters == (want,)

    labels = list(fam.labels())
    for i, j, k in itertools.product(labels, repeat=3):
        for a in fam.component_elements(i, j):
            A = fam.to_matrix(a, i, j)
            for b in fam.component_elements(j, k):
                ab = alg.mul(A, fam.to_matrix(b, j, k))
                assert fam.block_mul(a, i, j, b, k) == fam.project(ab, i, k)


KERNEL_GRIDS = ("M3-Z4-units", "M3-GF4-units", "M4-Z2-[[0,1],[2,3]]")


def dense_step(fam, m, L, s):
    """m (1 + a) multiplied out, or the homotope step s*m*a + m + a."""
    alg = fam.algebra
    a = dense(fam, L)
    if s is None:
        return alg.mul(m, alg.add(alg.one, a))
    return alg.add(alg.scalar_mul(s, alg.mul(m, a)), alg.add(m, a))


def long_words(fam, rng, count=120):
    """Random words of 3 and 4 letters from all_letters, which holds the
    zero payload of every component; every third word also has one
    letter replaced by a zero letter, so zero payloads sit amid nonzero
    ones."""
    letters = all_letters(fam)
    zeros = [L for L in letters if fam.is_zero(L.a)]
    words = []
    for t in range(count):
        w = [rng.choice(letters) for _ in range(3 + t % 2)]
        if t % 3 == 0:
            w[rng.randrange(len(w))] = rng.choice(zeros)
        words.append(tuple(w))
    assert any(fam.is_zero(L.a) for w in words for L in w)
    assert any(not fam.is_zero(L.a) for w in words for L in w)
    return words


@pytest.mark.parametrize("name", KERNEL_GRIDS)
def test_column_kernel_matches_dense_reference(name):
    """MatrixAlgebra.fold_columns against multiplying out 1 + a letter by
    letter: every one- and two-letter word, and random words of three and
    four letters with zero payloads mixed in, each folded in one call,
    plain and at three homotope scales, from the identity, from zero and
    from random start matrices, read back through matrix().  Z/m rings
    take the kernel's packed branch, GF(4) its list one."""
    fam = GRIDS[name]
    alg = fam.algebra
    assert (alg._mod is None) == isinstance(alg.base, GF)
    rng = random.Random(name)
    starts = [alg.one, alg.zero] + [
        tuple(tuple(rng.choice(list(alg.base.elements())) for _ in range(alg.n)) for _ in range(alg.n))
        for _ in range(2)
    ]
    scales = [None] + [scalar(alg.base, k) for k in SCALES]
    letters = all_letters(fam)
    words = [(L,) for L in letters] + list(itertools.product(letters, repeat=2))
    words += long_words(fam, rng)
    for s in scales:
        for m in starts:
            for w in words:
                cols = alg.columns(m)
                assert alg.fold_columns(cols, fam.cell_table, w, s) is cols
                want = m
                for L in w:
                    want = dense_step(fam, want, L, s)
                assert alg.matrix(cols) == want
    # zero letters leave every column as it was: zero values are skipped
    zeros = tuple(L for L in letters if fam.is_zero(L.a))
    unit = alg.columns(alg.one)
    for w in [zeros[:1], zeros]:
        cols = unit[:]
        alg.fold_columns(cols, fam.cell_table, w, scales[-1])
        assert all(col is row for col, row in zip(cols, unit))


def list_fold(alg, cols, cells, letters, scale=None):
    """The list-column Z/m kernel, the oracle of the packed one: every
    column a list of canonical entries, each update one new list of n
    multiply-add-mods, plus v at (k, c) in the homotope step."""
    m = alg.base.m
    for i, j, a in letters:
        for (k, c), v in zip(cells[i][j], a):
            if v:
                sv = v if scale is None else scale * v % m
                col = [(y + x * sv) % m for x, y in zip(cols[k], cols[c])]
                if scale is not None:
                    col[k] = (col[k] + v) % m
                cols[c] = col
    return cols


WIDE = 2 ** 61 - 1
PACKED_GRIDS = {
    "M3-Z4-units": GRIDS["M3-Z4-units"],
    "M4-Z2-[[0,1],[2,3]]": GRIDS["M4-Z2-[[0,1],[2,3]]"],
    "M3-Z1-units": IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(1), 3)),
    "M5-Z12-[[0],[1],[2,4],[3]]": IdempotentFamily(MatrixAlgebra(Zmod(12), 5), [[0], [1], [2, 4], [3]]),
    "M3-Zwide-units": IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(WIDE), 3)),
    "M4-Zwide-[[0,1],[2,3]]": IdempotentFamily(MatrixAlgebra(Zmod(WIDE), 4), [[0, 1], [2, 3]]),
}


def packed_words(fam, rng):
    """Words for the packed kernel: every word of one or two letters where
    the components are small, else random letters; the letters whose
    values are all m - 1, which grow the entries fastest, alone and in
    words long enough to cross several reductions; and random words of
    three to twenty letters."""
    alg = fam.algebra
    m = alg.base.m
    pairs = [(i, j) for i in fam.labels() for j in fam.labels() if i != j]
    if all(fam.component_size(i, j) <= 16 for i, j in pairs):
        letters = all_letters(fam)
        words = [(L,) for L in letters] + list(itertools.product(letters, repeat=2))
    else:
        letters = [Letter(i, j, fam.sample_component(i, j, rng)) for i, j in pairs for _ in range(4)]
        words = [(L,) for L in letters] + [tuple(rng.choices(letters, k=2)) for _ in range(60)]
    extreme = [Letter(i, j, (m - 1,) * len(fam.cells(i, j))) for i, j in pairs]
    words += [(L,) for L in extreme]
    longest = 3 * alg._free + 2
    words += [tuple(rng.choices(extreme, k=longest)) for _ in range(8)]
    words += [tuple(rng.choices(letters + extreme, k=rng.randrange(3, 21))) for _ in range(60)]
    return words


@pytest.mark.parametrize("forced", [False, True], ids=["schedule", "reduce-every-letter"])
@pytest.mark.parametrize("name", sorted(PACKED_GRIDS))
def test_packed_kernel_matches_list_oracle(name, forced, monkeypatch):
    """The packed Z/m branch of fold_columns against the list kernel:
    equal matrices through matrix(), and canonical columns (repacking the
    matrix gives the same ints), plain and at every homotope scale, from
    the identity, zero and random starts, over Z/1, Z/2, Z/4, Z/12 and
    Z/(2^61 - 1).  With forced, the budget is zero, so the fold reduces
    before every letter, mid-fold."""
    fam = PACKED_GRIDS[name]
    alg = fam.algebra
    m = alg.base.m
    if forced:
        monkeypatch.setattr(alg, "_budget", 0)
        monkeypatch.setattr(alg, "_free", 0)
    rng = random.Random(name)
    starts = [alg.one, alg.zero] + [random_element(alg, rng) for _ in range(2)]
    scales = [None] + sorted({k % m for k in SCALES + (m - 1,)})
    words = packed_words(fam, rng)
    for s in scales:
        for start in starts:
            want_start = [list(c) for c in zip(*start)]
            for w in words:
                cols = alg.fold_columns(alg.columns(start), fam.cell_table, w, s)
                want = tuple(zip(*list_fold(alg, want_start[:], fam.cell_table, w, s)))
                assert alg.matrix(cols) == want
                assert cols == alg.columns(want)


@pytest.mark.parametrize("name", sorted(PACKED_GRIDS))
def test_reduction_schedule_keeps_entries_below_the_bound(name):
    """The growth bound behind the schedule (MatrixAlgebra._pack_layout):
    each run of letters the kernel folds between reductions, the whole
    word when it has at most _free letters and the runs of _runs
    otherwise, keeps every entry below 2^A when folded in exact integer
    arithmetic, unreduced, from the worst canonical start (every entry
    m - 1), plain and at scale m - 1.  The words chain letters whose
    values are all m - 1, with each letter reading the columns the one
    before it wrote, where the bound is nearly tight."""
    fam = PACKED_GRIDS[name]
    alg = fam.algebra
    m = alg.base.m
    mu, s, Q, shifts = alg._packed
    bound = 1 << (s - m.bit_length())
    labels = list(fam.labels())
    rng = random.Random(name)
    words = []
    for length in (1, alg._free, 4 * alg._free + 3):
        for _ in range(6):
            chain = [rng.choice(labels)]
            while len(chain) <= length:
                chain.append(rng.choice([t for t in labels if t != chain[-1]]))
            words.append(tuple(Letter(i, j, (m - 1,) * len(fam.cells(i, j))) for i, j in zip(chain, chain[1:])))
    for scale in (None, m - 1):
        for w in words:
            runs = (w,) if len(w) <= alg._free else alg._runs(w)
            assert sum(map(len, runs)) == len(w)
            for run in runs:
                cols = [[m - 1] * alg.n for _ in range(alg.n)]
                for i, j, a in run:
                    for (k, c), v in zip(fam.cells(i, j), a):
                        sv = v if scale is None else scale * v % m
                        col = [y + x * sv for x, y in zip(cols[k], cols[c])]
                        if scale is not None:
                            col[k] += v
                        cols[c] = col
                assert max(map(max, cols)) < bound


@pytest.mark.parametrize("m", [1, 2, 3, 12, 1000003, WIDE])
def test_barrett_step_reduces_every_limb(m):
    """X - m * (((X * mu) >> s) & Q) is X mod m in every limb at once, on
    every limb value below 2^12, every one from 2^A - 2^12 to the bound
    2^A and one past it on either side, each multiple of m near 2^A and
    one off it, and random values below 2^A, four limbs to a column, so
    that a carry between limbs would show."""
    alg = MatrixAlgebra(Zmod(m), 4)
    mu, s, Q, shifts = alg._packed
    top = 1 << (s - m.bit_length())
    rng = random.Random(m)
    values = list(range(min(top, 1 << 12))) + list(range(top - (1 << 12), top + 2))
    near = top // m * m
    values += [q + d for q in range(near - 64 * m, near + m, m) for d in (-1, 0, 1) if 0 <= q + d <= top + 1]
    values += [rng.randrange(top) for _ in range(4000)]
    rng.shuffle(values)
    values += [0] * (-len(values) % 4)
    for t in range(0, len(values), 4):
        limbs = values[t : t + 4]
        X = sum(v << sh for v, sh in zip(limbs, shifts))
        assert alg.matrix([X - m * ((X * mu >> s) & Q)]) == tuple((v % m,) for v in limbs)


@pytest.mark.parametrize("m", [4, WIDE])
def test_packed_kernel_refuses_list_columns(m):
    """A list or tuple column in the Z/m branch raises TypeError before
    any update, even for the empty word, so list * int never repeats a
    list (over Z/(2^61 - 1) that would exhaust memory)."""
    fam = IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(m), 3))
    alg = fam.algebra
    w = (Letter(1, 2, (m - 1,)), Letter(2, 3, (m - 1,)))
    mixed = alg.columns(alg.one)
    mixed[1] = list(alg.one[1])
    for cols in [[list(c) for c in alg.one], list(alg.one), mixed]:
        before = list(cols)
        for letters in [w, ()]:
            with pytest.raises(TypeError):
                alg.fold_columns(cols, fam.cell_table, letters, None)
            with pytest.raises(TypeError):
                alg.fold_columns(cols, fam.cell_table, letters, 2)
            assert all(c is b for c, b in zip(cols, before))


@pytest.mark.parametrize("name", KERNEL_GRIDS)
def test_column_kernel_never_changes_a_column_in_place(name):
    """fold_columns replaces each column it updates and changes none in
    place, so folding letters onto a shallow copy of a buffer leaves the
    buffer's own columns as they were, and every column no letter touches
    keeps its object: the relation grid shares the columns of st(x)
    across every second payload on that guarantee.  Every nonzero letter,
    and random words of three and four letters with zero payloads mixed
    in; Z/m rings take the packed branch, ints that no update can change,
    GF(4) its list one, plain and at three homotope scales."""
    fam = GRIDS[name]
    alg = fam.algebra
    rng = random.Random(name)
    words = [(L,) for L in all_letters(fam) if not fam.is_zero(L.a)]
    words += long_words(fam, rng)
    for s in [None] + [scalar(alg.base, k) for k in SCALES]:
        for w in words:
            start = random_element(alg, rng)
            cols = alg.columns(start)
            objects = list(cols)
            buf = cols[:]
            alg.fold_columns(buf, fam.cell_table, w, s)
            assert all(c is o for c, o in zip(cols, objects))
            assert alg.matrix(cols) == start
            touched = {
                c
                for L in w
                for (_, c), v in zip(fam.cells(L.i, L.j), L.a)
                if v != alg.base.zero
            }
            assert all(buf[c] is cols[c] for c in range(alg.n) if c not in touched)


@pytest.mark.parametrize("name", KERNEL_GRIDS)
def test_shared_prefix_columns_stay_those_of_the_prefix(name):
    """The grid's sharing at the kernel: the columns of st(x), folded once,
    are copied shallowly under every second letter y, and each fold of
    y x^-1 y^-1 onto a copy equals the fold of the whole word from the
    identity, while the shared buffer still reads st(x).  Negative
    control: the same fold onto the buffer itself, unshared, leaves it
    st(x y x^-1 y^-1), not st(x)."""
    fam = GRIDS[name]
    alg = fam.algebra
    neg = alg.base.neg
    letters = [L for L in all_letters(fam) if not fam.is_zero(L.a)]
    unit = alg.columns(alg.one)
    moved = 0
    for x in letters[:6]:
        x_inv = Letter(x.i, x.j, tuple(map(neg, x.a)))
        pre = alg.fold_columns(unit[:], fam.cell_table, (x,))
        st_x = alg.matrix(pre)
        for y in letters:
            rest = (y, x_inv, Letter(y.i, y.j, tuple(map(neg, y.a))))
            got = alg.fold_columns(pre[:], fam.cell_table, rest)
            assert got == alg.fold_columns(unit[:], fam.cell_table, (x,) + rest)
            assert alg.matrix(pre) == st_x
        alg.fold_columns(pre, fam.cell_table, rest)
        moved += alg.matrix(pre) != st_x
    assert moved


def test_cell_table_holds_every_label_pair():
    """cell_table[i][j] is cells(i, j), the same tuple, for every pair of
    labels; tuple labels are still served by cells() alone."""
    for fam in list(GRIDS.values()) + [IdempotentFamily(MatrixAlgebra(Zmod(6), 5), [[0], [1], [2, 4], [3]])]:
        table = fam.cell_table
        assert len(table) == fam.n + 1 and all(len(row) == fam.n + 1 for row in table[1:])
        for i in fam.labels():
            for j in fam.labels():
                assert table[i][j] is fam.cells(i, j)
                assert table[i][j] == tuple((r, c) for r in fam.support(i) for c in fam.support(j))
