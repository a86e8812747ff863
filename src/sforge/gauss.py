"""Constructive Gauss factorization g = st(w+) st(w-) st(w+') d over
finite semi-local instances, and lifting of invertible elements through
the Steinberg word group.

The two-block step is block LU by Schur complements with the classical
pivot: choose a in R_tJ, J the labels after t, so that the J-corner
delta of g(1 + a) is invertible (per residue field, greedy column
fixing, then a CRT lift); then c = g(1 + a)_tJ delta^-1, u = g_tt - c g_Jt
and g = (1 + c)(1 + g_Jt u^-1)(1 - u a delta^-1) diag(u, delta).  It
works on block values, with IdempotentFamily.block_mul, and inverts delta.

A forward pass runs the step for t = 1, ..., n - 1, each on the corner
the one before left; the DiagonalElement of (u_1, ..., u_{n-1}, delta)
inverts each d_t once.  A backward pass, t = n - 1, ..., 1, moves the
two stray pieces past W = st(v+ v- v+') and V = st(v+), the words of the
later steps, which are the identity on block t: the row piece
x = -u a delta^-1 becomes x W_JJ = -u a D_J^-1, as the later steps factor
delta as W_JJ D_J, and the column piece y = g_Jt u^-1 becomes V^-1_JJ y,
with V^-1 a column buffer folded with the inverted c letters of each
step.  No n x n matrix is multiplied, added or inverted until
GaussFactorization.check multiplies the factorization back.
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

    Returns the block values (c, g_Jt, u, ua, delta, delta_inv): c and
    ua = -u a in R_tJ, g_Jt in R_Jt, u in R_tt, and delta and its inverse
    in R_JJ, with
    g = (1 + c)(1 + g_Jt u^-1)(1 + ua delta^-1)(u + delta + 1 - e_t - e_J).
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
    c = mul(g1_tJ, t, J, delta_inv, J)
    u = _add(fam, g_tt, _neg(fam, mul(c, t, J, g_Jt, t)))
    ua = _neg(fam, mul(u, t, t, a, J))
    return c, g_Jt, u, ua, delta, delta_inv


def gauss_decompose(fam, g):
    """Factor an invertible g as st(w+) st(w-) st(w+') d, exactly.

    Raises NotInvertible when g is not a unit; the result is verified by
    multiplying back before it is returned.
    """
    alg = fam.algebra
    if not alg.is_unit(g):
        raise NotInvertible("element is not invertible")
    n = fam.n
    ctx = Context(fam)
    mul = fam.block_mul
    plus, steps, d = [], [], []
    corner = g
    for t in range(1, n):
        J = tuple(range(t + 1, n + 1))
        c, g_Jt, u, ua, delta, _ = _block_step(fam, corner, t, J)
        c_letters = split_letters(fam, c, (t,), J)
        plus += c_letters
        steps.append((t, J, c_letters, g_Jt, ua))
        d.append(u)
        corner = fam.write(alg.one, delta, J, J)
    d.append(fam.project(corner, n, n))
    diag = DiagonalElement(fam, d)
    d_inv = diag.inverse_blocks
    # V^-1 = st(v+)^-1 for v+ the c letters of the steps after t
    v_inv = alg.columns(alg.one)
    minus, plus2 = [], []
    for t, J, c_letters, g_Jt, ua in reversed(steps):
        # the row piece x W_JJ = ua D_J^-1; d_j^-1 is a unit, so zero pieces stay zero
        plus2 += [
            Letter(t, L.j, mul(L.a, t, L.j, d_inv[L.j - 1], L.j))
            for L in split_letters(fam, ua, (t,), J)
        ]
        # the column piece V^-1_JJ y, y = g_Jt u^-1
        if not fam.is_zero(g_Jt):
            lower = mul(g_Jt, J, t, d_inv[t - 1], t)
            V_inv = fam.project(alg.matrix(v_inv), J, J)
            minus[:0] = split_letters(fam, mul(V_inv, J, J, lower, t), J, (t,))
        alg.fold_columns(v_inv, fam.cell_table, Word(ctx, c_letters).inverse().letters)
    fac = GaussFactorization(Word(ctx, plus), Word(ctx, minus), Word(ctx, plus2), diag)
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
    checks its factorization g = st(x_ij(c)) st(x_ji(lower)) st(x_ij(upper2)) d:
    the pairs (c, lower) and (upper2, 0), padded with a zero pair to three.
    When word_samples > 0 also generates alternating words of length 3
    and, whenever the image is diagonal, confirms it re-decomposes;
    gauss_decompose verifies its own factorization and raises otherwise.
    """
    alg = fam.algebra
    j = i + 1
    ctx = Context(fam)
    mul = fam.block_mul
    ones = [fam.project(alg.one, t, t) for t in fam.labels()]
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
        c, g_ji, u, ua, delta, delta_inv = _block_step(fam, g, i, (j,))
        d = DiagonalElement(fam, ones[:i - 1] + [u, delta] + ones[j:])
        lower = mul(g_ji, j, i, d.inverse_blocks[i - 1], i)
        upper2 = mul(ua, i, j, delta_inv, j)
        max_pairs = max(max_pairs, sum(not fam.is_zero(v) for v in (c + lower, upper2)))
        fac = GaussFactorization(
            Word(ctx, [Letter(i, j, c)]),
            Word(ctx, [Letter(j, i, lower)]),
            Word(ctx, [Letter(i, j, upper2)]),
            d,
        )
        if not fac.check(g):
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
