"""Constructive Gauss factorization g = st(w+) st(w-) st(w+') d over
finite semi-local instances, and lifting of invertible elements through
the Steinberg word group.

The two-block step follows the classical pivot argument: choose a in
R_tJ, J the labels after t, so that the J-corner of g(1 + a) is
invertible (per residue field, greedy column fixing, then a CRT lift),
clear the lower block, and read off the three unipotent payloads and the
diagonal.  It works on block values: g is read once as its four blocks
g_tt, g_tJ, g_Jt and g_JJ, every product is IdempotentFamily.block_mul,
and the two inverses are corner inverses of R_tt and R_JJ.

Larger families recurse on the first block versus the rest, and the two
out-of-order pieces are moved through the recursion.  W = st(v+ v- v+')
and V = st(v+), the words of the recursion, are the identity on block t,
so W^-1 (1 + x) W = 1 + x W_JJ for the row piece x in R_tJ and
V^-1 (1 + y) V = 1 + V^-1_JJ y for the column piece y in R_Jt: one st
image and one block product per nonempty piece.  The row and column
letters are words.split_letters of x and y.  No n x n matrix is
multiplied, added or inverted until the final check multiplies the
factorization back.
"""

from __future__ import annotations

from .rings import NotInvertible, SforgeError, random_element
from .words import Context, DiagonalElement, Letter, Word, split_letters, st_eval


class PivotSearchFailed(SforgeError):
    """No pivot made the corner invertible; not expected on semi-local input."""


class GaussFactorization:
    """The record (w_plus, w_minus, w_plus2, d) with st-product equal to g."""

    def __init__(self, w_plus, w_minus, w_plus2, d):
        self.w_plus = w_plus
        self.w_minus = w_minus
        self.w_plus2 = w_plus2
        self.d = d

    def word(self):
        """The unipotent part as one word."""
        return self.w_plus * self.w_minus * self.w_plus2

    def product(self):
        alg = self.d.family.algebra
        return alg.mul(st_eval(self.word()), self.d.embed())

    def check(self, g):
        return self.product() == g

    def to_json(self):
        from .words import word_to_json

        fam = self.d.family
        return {
            "d": [
                fam.algebra.element_to_json(fam.to_matrix(u, t, t))
                for t, u in enumerate(self.d.blocks, start=1)
            ],
            "w_minus": word_to_json(self.w_minus)["letters"],
            "w_plus": word_to_json(self.w_plus)["letters"],
            "w_plus2": word_to_json(self.w_plus2)["letters"],
        }


def _field_pivot_cells(F, M, rowsP, colsT):
    """Greedy pivot over a field: cells of a (in T x P) to set to one.

    Maintains an independent set of fixed columns; when the next target
    column is dependent some unused T-column must be independent (else the
    P-rows of M would not have full rank), and adding it fixes the target.
    Only the entries M[r][c] with r in rowsP and c in rowsP or colsT are
    read.
    """
    def column(c):
        return [M[r][c] for r in rowsP]

    basis = []

    def reduce(v):
        v = list(v)
        for pi, bv in basis:
            coef = v[pi]
            if coef != F.zero:
                v = [F.sub(x, F.mul(coef, y)) for x, y in zip(v, bv)]
        return v

    def insert(v):
        for idx, x in enumerate(v):
            if x != F.zero:
                inv = F.inv(x)
                basis.append((idx, [F.mul(inv, y) for y in v]))
                return
        raise PivotSearchFailed("tried to insert a dependent column")

    cells = set()
    for c in rowsP:
        r = reduce(column(c))
        if any(x != F.zero for x in r):
            insert(r)
            continue
        for w in colsT:
            rw = reduce(column(w))
            if any(x != F.zero for x in rw):
                cells.add((w, c))
                insert(rw)
                break
        else:
            raise PivotSearchFailed("no independent witness column")
    return cells


def _pivot(fam, g, t, J):
    """The block values of an a in R_tJ with the J-corner of g(1 + a)
    invertible."""
    base = fam.algebra.base
    rowsP = sorted(p for j in J for p in fam.support(j))
    colsT = list(fam.support(t))
    read = rowsP + colsT
    chosen = {}
    for field, proj in base.residue_fields():
        # only the entries _field_pivot_cells reads go into the field
        M = {r: {c: proj(g[r][c]) for c in read} for r in rowsP}
        for cell in _field_pivot_cells(field, M, rowsP, colsT):
            chosen.setdefault(cell, []).append(field)
    fields = [f for f, _ in base.residue_fields()]
    out = []
    for cell in fam.cells(t, J):
        fixed_in = chosen.get(cell)
        if fixed_in is None:
            out.append(base.zero)
        else:
            vals = [field.one if field in fixed_in else field.zero for field in fields]
            out.append(base.combine_residues(vals))
    return tuple(out)


def _add(fam, a, b):
    add = fam.algebra.base.add
    return tuple([add(x, y) for x, y in zip(a, b)])


def _neg(fam, a):
    return tuple(map(fam.algebra.base.neg, a))


def _block_step(fam, g, t, J):
    """One two-block elimination of block t against the labels J.

    Returns the block values (c, lower, upper2, u, delta): c and upper2
    in R_tJ, lower in R_Jt, u in R_tt and delta in R_JJ, with
    g = (1 + c)(1 + lower)(1 + upper2)(u + delta + 1 - e_t - e_J).
    Every product is a block product: g(1 + a) changes only the J
    columns of g, and the other factors sit in one block each.
    """
    mul = fam.block_mul
    a = _pivot(fam, g, t, J)
    g_tt = fam.project(g, t, t)
    g_Jt = fam.project(g, J, t)
    g1_tJ = _add(fam, fam.project(g, t, J), mul(g_tt, t, t, a, J))
    delta = _add(fam, fam.project(g, J, J), mul(g_Jt, J, t, a, J))
    try:
        delta_inv = fam.corner_inv(delta, J)
    except NotInvertible:
        raise PivotSearchFailed("pivot did not make the corner invertible") from None
    b = _neg(fam, mul(delta_inv, J, J, g_Jt, t))
    u = _add(fam, g_tt, mul(g1_tJ, t, J, b, t))
    try:
        u_inv = fam.corner_inv(u, t)
    except NotInvertible:
        raise PivotSearchFailed("leading corner not invertible after clearing") from None
    c = mul(g1_tJ, t, J, delta_inv, J)
    upper2 = _neg(fam, mul(mul(u, t, t, a, J), t, J, delta_inv, J))
    lower = _neg(fam, mul(mul(delta, J, J, b, t), J, t, u_inv, t))
    return c, lower, upper2, u, delta


def _decompose_rec(fam, g, t):
    """(w+ letters, w- letters, w+' letters, block values of d_t, ..., d_n)
    for g, which is the identity outside the blocks t, ..., n."""
    n = fam.n
    if t == n:
        return [], [], [], [fam.project(g, n, n)]
    J = tuple(range(t + 1, n + 1))
    c, lower, upper2, u, delta = _block_step(fam, g, t, J)
    v_plus, v_minus, v_plus2, d = _decompose_rec(
        fam, fam.write(fam.algebra.one, delta, J, J), t + 1
    )
    # move the stray pieces through the recursion: W = st(v+ v- v+') and
    # V = st(v+) are the identity on block t, so W^-1 (1 + x) W = 1 + x W_JJ
    # for x in R_tJ and V^-1 (1 + y) V = 1 + V^-1_JJ y for y in R_Jt
    ctx = Context(fam)
    mul = fam.block_mul
    moved_plus2 = []
    if not fam.is_zero(upper2):
        W = fam.project(st_eval(Word(ctx, v_plus + v_minus + v_plus2)), J, J)
        moved_plus2 = split_letters(fam, mul(upper2, t, J, W, J), (t,), J)
    moved_minus = []
    if not fam.is_zero(lower):
        V_inv = fam.project(st_eval(Word(ctx, v_plus).inverse()), J, J)
        moved_minus = split_letters(fam, mul(V_inv, J, J, lower, t), J, (t,))
    return (
        split_letters(fam, c, (t,), J) + v_plus,
        moved_minus + v_minus,
        v_plus2 + moved_plus2,
        [u] + d,
    )


def gauss_decompose(fam, g):
    """Factor an invertible g as st(w+) st(w-) st(w+') d, exactly.

    Raises NotInvertible when g is not a unit; the result is verified by
    multiplying back before it is returned.
    """
    alg = fam.algebra
    if not alg.is_unit(g):
        raise NotInvertible("element is not invertible")
    ctx = Context(fam)
    p1, m1, p2, d = _decompose_rec(fam, g, 1)
    fac = GaussFactorization(
        Word(ctx, tuple(p1)),
        Word(ctx, tuple(m1)),
        Word(ctx, tuple(p2)),
        DiagonalElement(fam, d),
    )
    if not fac.check(g):
        raise SforgeError("internal error: factorization failed verification")
    return fac


def lift_to_st(fam, g):
    """(word, diagonal) with st(word) * embed(diagonal) == g."""
    fac = gauss_decompose(fam, g)
    return fac.word(), fac.d


def enumerate_gl(alg):
    """All invertible elements, by brute-force unit testing."""
    for m in alg.elements():
        if alg.is_unit(m):
            yield m


def sample_gl(alg, rng):
    for _ in range(10000):
        m = random_element(alg, rng)
        if alg.is_unit(m):
            return m
    raise SforgeError("failed to sample an invertible element")


def _corner_candidates(fam, i, j, rng=None, samples=None):
    """Elements that are identity outside the blocks i and j.

    Each is the identity with the block values of the corner of the label
    tuple (i, j) written in, whose cells are the sorted positions of both
    blocks, row by row.  Exhaustive (component_elements) when rng is None,
    sampled (sample_component) otherwise.
    """
    I = (i, j)
    if rng is None:
        fills = fam.component_elements(I, I)
    else:
        fills = (fam.sample_component(I, I, rng) for _ in range(samples))
    for fill in fills:
        yield fam.write(fam.algebra.one, fill, I, I)


def presentation_relation_check(fam, i, rng=None, samples=None, word_samples=0):
    """Check that two-block corner units need at most three alternating
    pairs x_{i,i+1}(a) x_{i+1,i}(b) in front of a diagonal.

    Enumerates (or samples) corner units g, runs the two-block step, and
    re-multiplies the alternating form with zero padding up to length 3.
    When word_samples > 0 also generates alternating words of length 3
    and, whenever the image is diagonal, confirms it re-decomposes;
    gauss_decompose verifies its own factorization and raises otherwise.
    """
    alg = fam.algebra
    j = i + 1
    ctx = Context(fam)
    zero_ij = (alg.base.zero,) * len(fam.cells(i, j))
    zero_ji = (alg.base.zero,) * len(fam.cells(j, i))
    checked = skipped = 0
    diagonal_words = 0
    violations = []
    max_pairs = 0
    for g in _corner_candidates(fam, i, j, rng=rng, samples=samples):
        if not alg.is_unit(g):
            skipped += 1
            continue
        checked += 1
        # the cells of (i, (j,)) are those of (i, j), so the values pass as they are
        c, lower, upper2, u, delta = _block_step(fam, g, i, (j,))
        pairs = [(c, lower), (upper2, zero_ji), (zero_ij, zero_ji)]
        used = sum(1 for a, b in pairs if (a, b) != (zero_ij, zero_ji))
        max_pairs = max(max_pairs, used)
        letters = [L for a, b in pairs for L in (Letter(i, j, a), Letter(j, i, b))]
        m = st_eval(Word(ctx, letters))
        dd = fam.write(fam.write(alg.one, delta, j, j), u, i, i)
        if alg.mul(m, dd) != g:
            violations.append(alg.element_to_json(g))
    if word_samples and rng is not None:
        for _ in range(word_samples):
            letters = []
            for _k in range(3):
                letters.append(Letter(i, j, fam.sample_component(i, j, rng)))
                letters.append(Letter(j, i, fam.sample_component(j, i, rng)))
            m = st_eval(Word(ctx, letters))
            if _is_diagonal(fam, m):
                diagonal_words += 1
                gauss_decompose(fam, m)
    return {
        "checked": checked,
        "diagonal_words": diagonal_words,
        "max_pairs": max_pairs,
        "singular_skipped": skipped,
        "violations": violations[:3],
        "violation_count": len(violations),
    }


def _is_diagonal(fam, m):
    return all(
        fam.is_zero(fam.project(m, s, t))
        for s in fam.labels()
        for t in fam.labels()
        if s != t
    )
