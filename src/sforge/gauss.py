"""Constructive Gauss factorization g = st(w+) st(w-) st(w+') d over
finite semi-local instances, and lifting of invertible elements through
the Steinberg word group.

The two-block step follows the classical pivot argument: choose a in
R_IJ so that the J-corner of g(1 + a) is invertible (per residue field,
greedy column fixing, then a CRT lift), clear the lower block, and read
off the three unipotent payloads and the diagonal.  Larger families
recurse on the first block versus the rest; the out-of-order unipotent
pieces are pulled through the recursion using the fact that the first
row and first column generate abelian subgroups normalized by everything
supported on the remaining blocks, where normal forms can be read off
the st image exactly.
"""

from __future__ import annotations

import itertools

from .peirce import IdempotentFamily
from .rings import NotInvertible, SforgeError, random_element
from .words import Context, DiagonalElement, Letter, Word, st_eval


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

        alg = self.d.family.algebra
        return {
            "d": [alg.element_to_json(u) for u in self.d.components],
            "w_minus": word_to_json(self.w_minus)["letters"],
            "w_plus": word_to_json(self.w_plus)["letters"],
            "w_plus2": word_to_json(self.w_plus2)["letters"],
        }


def _field_pivot_cells(F, M, rowsP, colsT):
    """Greedy pivot over a field: cells of a (in T x P) to set to one.

    Maintains an independent set of fixed columns; when the next target
    column is dependent some unused T-column must be independent (else the
    P-rows of M would not have full rank), and adding it fixes the target.
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


def _pivot(fam, g, t, Jlabels):
    """An element a of R_tJ with the J-corner of g(1 + a) invertible."""
    alg = fam.algebra
    base = alg.base
    rowsP = sorted(p for j in Jlabels for p in fam.support(j))
    colsT = list(fam.support(t))
    chosen = {}
    for field, proj in base.residue_fields():
        M = tuple(tuple(proj(x) for x in row) for row in g)
        for cell in _field_pivot_cells(field, M, rowsP, colsT):
            chosen.setdefault(cell, []).append(field)
    fields = [f for f, _ in base.residue_fields()]
    rows = [list(row) for row in alg.zero]
    for (w, c), fixed_in in chosen.items():
        vals = [field.one if field in fixed_in else field.zero for field in fields]
        rows[w][c] = base.combine_residues(vals)
    return tuple(tuple(row) for row in rows)


def _sum_idem(fam, labels):
    alg = fam.algebra
    acc = alg.zero
    for t in labels:
        acc = alg.add(acc, fam.idempotent(t))
    return acc


def _row_letters(fam, t, Jlabels, x):
    """The nonzero letters x_tj(e_t x e_j), j in J, of the matrix x."""
    out = []
    for j in Jlabels:
        v = fam.project(x, t, j)
        if not fam.is_zero(v):
            out.append(Letter(t, j, v))
    return out


def _col_letters(fam, t, Jlabels, y):
    """The nonzero letters x_jt(e_j y e_t), j in J, of the matrix y."""
    out = []
    for j in Jlabels:
        v = fam.project(y, j, t)
        if not fam.is_zero(v):
            out.append(Letter(j, t, v))
    return out


def _cut(fam, m, I, J):
    """e_I m e_J as an n x n matrix, for the dense block products below."""
    return fam.to_matrix(fam.project(m, I, J), I, J)


def _block_step(fam, g, t, Jlabels):
    """One two-block elimination of row/column t against the blocks in J.

    Returns (upper letters, lower letters, second upper letters, corner u,
    remainder) where remainder is identity outside the J blocks and
    g = st(upper) st(lower) st(upper2) (u + remainder - e_J ...) holds as
    the usual triangular bookkeeping verified by the caller's final check.
    """
    alg = fam.algebra
    eJ = _sum_idem(fam, Jlabels)
    comp = alg.sub(alg.one, eJ)
    a = _pivot(fam, g, t, Jlabels)
    g1 = alg.mul(g, alg.add(alg.one, a))
    delta = fam.project(g1, Jlabels, Jlabels)
    try:
        delta_inv = fam.to_matrix(fam.corner_inv(delta, Jlabels), Jlabels, Jlabels)
    except NotInvertible:
        raise PivotSearchFailed("pivot did not make the corner invertible") from None
    delta = fam.to_matrix(delta, Jlabels, Jlabels)
    delta_full = alg.add(delta, comp)
    gamma_JI = _cut(fam, g1, Jlabels, t)
    gamma_IJ = _cut(fam, g1, t, Jlabels)
    b = alg.neg(alg.mul(delta_inv, gamma_JI))
    u = fam.project(alg.mul(g1, alg.add(alg.one, b)), t, t)
    try:
        u_inv = fam.to_matrix(fam.corner_inv(u, t), t, t)
    except NotInvertible:
        raise PivotSearchFailed("leading corner not invertible after clearing") from None
    u = fam.to_matrix(u, t, t)
    c = alg.mul(gamma_IJ, delta_inv)
    upper2 = alg.neg(alg.mul(u, alg.mul(a, delta_inv)))
    lower = alg.neg(alg.mul(delta, alg.mul(b, u_inv)))
    return (
        _row_letters(fam, t, Jlabels, c),
        _col_letters(fam, t, Jlabels, lower),
        _row_letters(fam, t, Jlabels, upper2),
        u,
        delta_full,
    )


def _decompose_rec(fam, g, t):
    alg = fam.algebra
    n = fam.n
    if t == n:
        return [], [], [], {n: _cut(fam, g, n, n)}
    Jlabels = tuple(j for j in fam.labels() if j > t)
    t_plus, t_minus, t_plus2, u, delta_full = _block_step(fam, g, t, Jlabels)
    v_plus, v_minus, v_plus2, dcomp = _decompose_rec(fam, delta_full, t + 1)
    # pull the stray pieces through the recursion inside the row-t and
    # column-t subgroups, where st determines the word; st(w)^-1 is
    # st(w.inverse()), so no matrix is inverted here
    ctx = Context(fam)
    w_vp = Word(ctx, v_plus)
    w_all = Word(ctx, v_plus + v_minus + v_plus2)
    conj2 = alg.mul(
        st_eval(w_all.inverse()), alg.mul(st_eval(Word(ctx, t_plus2)), st_eval(w_all))
    )
    t_plus2_moved = _row_letters(fam, t, Jlabels, conj2)
    conjm = alg.mul(
        st_eval(w_vp.inverse()), alg.mul(st_eval(Word(ctx, t_minus)), st_eval(w_vp))
    )
    t_minus_moved = _col_letters(fam, t, Jlabels, conjm)
    dcomp[t] = u
    return (
        t_plus + v_plus,
        t_minus_moved + v_minus,
        v_plus2 + t_plus2_moved,
        dcomp,
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
    p1, m1, p2, dcomp = _decompose_rec(fam, g, 1)
    fac = GaussFactorization(
        Word(ctx, tuple(p1)),
        Word(ctx, tuple(m1)),
        Word(ctx, tuple(p2)),
        DiagonalElement(fam, [dcomp[t] for t in fam.labels()]),
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


def sample_gl(alg, rng, max_tries=10000):
    for _ in range(max_tries):
        m = random_element(alg, rng)
        if alg.is_unit(m):
            return m
    raise SforgeError("failed to sample an invertible element")


def _corner_candidates(fam, i, j, rng=None, samples=None):
    """Elements that are identity outside the blocks i and j.

    Exhaustive when rng is None, sampled otherwise.
    """
    alg = fam.algebra
    base = alg.base
    sup = sorted(fam.support(i) + fam.support(j))
    others = [p for p in range(alg.n) if p not in sup]

    def assemble(fill):
        rows = [[base.zero] * alg.n for _ in range(alg.n)]
        for p in others:
            rows[p][p] = base.one
        it = iter(fill)
        for r in sup:
            for c in sup:
                rows[r][c] = next(it)
        return tuple(tuple(row) for row in rows)

    k = len(sup) * len(sup)
    if rng is None:
        for fill in itertools.product(base.elements(), repeat=k):
            yield assemble(fill)
    else:
        pool = list(base.elements())
        for _ in range(samples):
            yield assemble([rng.choice(pool) for _ in range(k)])


def presentation_relation_check(fam, i, rng=None, samples=None, word_samples=0):
    """Check that two-block corner units need at most three alternating
    pairs x_{i,i+1}(a) x_{i+1,i}(b) in front of a diagonal.

    Enumerates (or samples) corner units g, runs the two-block step, and
    re-multiplies the alternating form with zero padding up to length 3.
    When word_samples > 0 also generates alternating words of length 3
    and, whenever the image is diagonal, confirms it re-decomposes.
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
        t_plus, t_minus, t_plus2, u, delta_full = _block_step(fam, g, i, (j,))
        pairs = [
            (_first_payload(t_plus, zero_ij), _first_payload(t_minus, zero_ji)),
            (_first_payload(t_plus2, zero_ij), zero_ji),
            (zero_ij, zero_ji),
        ]
        used = sum(1 for a, b in pairs if (a, b) != (zero_ij, zero_ji))
        max_pairs = max(max_pairs, used)
        letters = [L for a, b in pairs for L in (Letter(i, j, a), Letter(j, i, b))]
        m = st_eval(Word(ctx, letters))
        dd = alg.add(alg.add(u, _cut(fam, delta_full, j, j)), alg.sub(alg.one, _sum_idem(fam, [i, j])))
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
                fac = gauss_decompose(fam, m)
                if not fac.check(m):
                    violations.append(alg.element_to_json(m))
    return {
        "checked": checked,
        "diagonal_words": diagonal_words,
        "max_pairs": max_pairs,
        "singular_skipped": skipped,
        "violations": violations[:3],
        "violation_count": len(violations),
    }


def _first_payload(letters, zero):
    if not letters:
        return zero
    if len(letters) != 1:
        raise SforgeError("two-block step emitted more than one letter per slot")
    return letters[0].a


def _is_diagonal(fam, m):
    alg = fam.algebra
    acc = alg.zero
    for t in fam.labels():
        acc = alg.add(acc, _cut(fam, m, t, t))
    return acc == m
