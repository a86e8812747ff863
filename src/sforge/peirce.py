"""Complete families of Morita-equivalent orthogonal idempotents.

A family over a matrix algebra M(m, A) is given by a partition of the m
diagonal positions into n nonempty blocks; e_i is the diagonal 0/1 matrix of
the i-th block.  Matrix-unit families are the all-singleton partition.

Each ordered pair (i, j) carries Morita witnesses: pairs (x_p, y_p) with
x_p in R_ij = e_i R e_j, y_p in R_ji and sum_p x_p y_p = e_i.  They certify
e_i in R e_j R and drive the decomposition of any c in R_ik as
c = sum_p x_p (y_p c).
"""

from __future__ import annotations

import itertools

from .rings import MatrixAlgebra, SforgeError


class BadFamily(SforgeError):
    """The proposed idempotent family violates one of its defining laws."""


class IndexClash(SforgeError):
    """Block indices passed to an operation violate its side conditions."""


class IdempotentFamily:
    """A complete orthogonal family e_1, ..., e_n over a matrix algebra.

    Block labels are 1-based; matrix positions are 0-based.
    """

    def __init__(self, algebra, blocks):
        if not isinstance(algebra, MatrixAlgebra):
            raise BadFamily("idempotent families live over matrix algebras")
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        seen = [p for b in blocks for p in b]
        if sorted(seen) != list(range(algebra.n)) or any(not b for b in blocks):
            raise BadFamily("blocks must partition the diagonal positions")
        self.algebra = algebra
        self.blocks = blocks
        self.n = len(blocks)
        base = algebra.base
        self._idem = tuple(
            tuple(
                tuple(
                    base.one if (r == c and r in blk) else base.zero
                    for c in range(algebra.n)
                )
                for r in range(algebra.n)
            )
            for blk in blocks
        )
        self._witnesses = {}
        self._cells = {}

    @classmethod
    def matrix_units(cls, algebra):
        return cls(algebra, [[p] for p in range(algebra.n)])

    def labels(self):
        return range(1, self.n + 1)

    def idempotent(self, i):
        return self._idem[i - 1]

    def support(self, i):
        return self.blocks[i - 1]

    def cells(self, i, j):
        """The matrix positions (r, c) of the component R_ij, row by row.

        i and j are block labels, or tuples of labels standing for the sum
        of their idempotents.  Built on first use and cached.
        """
        got = self._cells.get((i, j))
        if got is None:
            got = tuple(
                (r, c) for r in self._positions(i) for c in self._positions(j)
            )
            self._cells[(i, j)] = got
        return got

    def _positions(self, labels):
        if isinstance(labels, tuple):
            return sorted(p for t in labels for p in self.blocks[t - 1])
        return self.blocks[labels - 1]

    def project(self, a, i, j):
        """The Peirce component e_i a e_j, extracted positionally.

        i and j may be tuples of labels, as in cells().
        """
        cells = self.cells(i, j)
        return self._from_cells(cells, [a[r][c] for r, c in cells])

    def contains(self, a, i, j):
        """Is a in R_ij, that is, zero off the cells of (i, j)?"""
        zero = self.algebra.base.zero
        nonzero = sum(x != zero for row in a for x in row)
        return nonzero == sum(a[r][c] != zero for r, c in self.cells(i, j))

    def witnesses(self, i, j):
        """Morita witness pairs for (i, j): sum_p x_p y_p == e_i."""
        if i == j:
            raise IndexClash("witnesses need two distinct block labels")
        got = self._witnesses.get((i, j))
        if got is None:
            alg = self.algebra
            c0 = self.blocks[j - 1][0]
            got = tuple(
                (alg.unit_matrix(r, c0), alg.unit_matrix(c0, r))
                for r in self.blocks[i - 1]
            )
            self._witnesses[(i, j)] = got
        return got

    def component_size(self, i, j):
        return self.algebra.base.size ** (
            len(self.blocks[i - 1]) * len(self.blocks[j - 1])
        )

    def component_elements(self, i, j):
        """All elements of R_ij, enumerated positionally."""
        cells = self.cells(i, j)
        pool = list(self.algebra.base.elements())
        for fill in itertools.product(pool, repeat=len(cells)):
            yield self._from_cells(cells, fill)

    def sample_component(self, i, j, rng):
        pool = list(self.algebra.base.elements())
        cells = self.cells(i, j)
        return self._from_cells(cells, [rng.choice(pool) for _ in cells])

    def _from_cells(self, cells, fill):
        out = [list(row) for row in self.algebra.zero]
        for (r, c), v in zip(cells, fill):
            out[r][c] = v
        return tuple(map(tuple, out))

    def corner_is_unit(self, u, i):
        """Is u in R_ii invertible in the corner ring e_i R e_i?"""
        alg = self.algebra
        e = self.idempotent(i)
        return alg.is_unit(alg.add(u, alg.sub(alg.one, e)))

    def corner_inv(self, u, i):
        """Inverse of u inside the corner e_i R e_i."""
        alg = self.algebra
        e = self.idempotent(i)
        v = alg.inv(alg.add(u, alg.sub(alg.one, e)))
        return self.project(v, i, i)

    def merge(self, p, q):
        """Merge blocks p and q; the merged class is placed last.

        Returns (coarse family, Refinement).
        """
        if p == q:
            raise IndexClash("cannot merge a block with itself")
        keep = [t for t in self.labels() if t not in (p, q)]
        new_blocks = [self.blocks[t - 1] for t in keep]
        new_blocks.append(tuple(sorted(self.blocks[p - 1] + self.blocks[q - 1])))
        coarse = IdempotentFamily(self.algebra, new_blocks)
        label_map = {t: k + 1 for k, t in enumerate(keep)}
        merged_label = len(keep) + 1
        label_map[p] = merged_label
        label_map[q] = merged_label
        return coarse, Refinement(self, coarse, (p, q), merged_label, label_map)

    def to_json(self):
        return {"blocks": [list(b) for b in self.blocks]}

    def __eq__(self, other):
        return (
            isinstance(other, IdempotentFamily)
            and other.algebra == self.algebra
            and other.blocks == self.blocks
        )

    def __hash__(self):
        return hash((self.algebra, self.blocks))

    def __repr__(self):
        return "IdempotentFamily(%r, %r)" % (self.algebra, self.blocks)


class Refinement:
    """Bookkeeping for one merge step between a fine and a coarse family."""

    def __init__(self, fine, coarse, fine_pair, merged_label, label_map):
        self.fine = fine
        self.coarse = coarse
        self.fine_pair = fine_pair
        self.merged_label = merged_label
        self.label_map = label_map
        self.fine_of = {}
        for f, c in label_map.items():
            self.fine_of.setdefault(c, []).append(f)
        for c in self.fine_of:
            self.fine_of[c].sort()


def family_from_json(algebra, obj):
    if obj == "units":
        return IdempotentFamily.matrix_units(algebra)
    if isinstance(obj, dict):
        obj = obj.get("blocks")
    return IdempotentFamily(algebra, obj)


def morita_decompose(fam, c, i, j, k):
    """Write c in R_ik as sum_p a_p b_p with a_p in R_ij, b_p in R_jk.

    Uses the stored witnesses for (i, j): a_p = x_p, b_p = y_p c.
    Zero factors are dropped; c = 0 gives the empty list.
    """
    if j in (i, k):
        raise IndexClash("auxiliary index must differ from both endpoints")
    alg = fam.algebra
    if not fam.contains(c, i, k):
        raise BadFamily("element does not lie in the requested Peirce component")
    out = []
    for x, y in fam.witnesses(i, j):
        b = alg.mul(y, c)
        if b != alg.zero:
            out.append((x, b))
    return out


class FamilyVerdict:
    def __init__(self, ok, violations):
        self.ok = ok
        self.violations = violations

    def __bool__(self):
        return self.ok


def check_idempotent_family(fam):
    """Re-verify idempotence, orthogonality, completeness and witness sums."""
    alg = fam.algebra
    bad = []
    total = alg.zero
    for i in fam.labels():
        e = fam.idempotent(i)
        if alg.mul(e, e) != e:
            bad.append(("idempotence", i))
        total = alg.add(total, e)
        for j in fam.labels():
            if i != j:
                if alg.mul(fam.idempotent(i), fam.idempotent(j)) != alg.zero:
                    bad.append(("orthogonality", (i, j)))
    if total != alg.one:
        bad.append(("completeness", None))
    for i in fam.labels():
        for j in fam.labels():
            if i == j:
                continue
            acc = alg.zero
            for x, y in fam.witnesses(i, j):
                if fam.project(x, i, j) != x or fam.project(y, j, i) != y:
                    bad.append(("witness-membership", (i, j)))
                acc = alg.add(acc, alg.mul(x, y))
            if acc != fam.idempotent(i):
                bad.append(("witness-sum", (i, j)))
    return FamilyVerdict(not bad, bad)


class FactorResult:
    """Outcome of factoring a bilinear map through the Peirce product.

    ok is True when the four identities hold on the tested grid; then
    induced(c) realizes the factored map on R_ik and agrees with g on
    products.  On failure, violation = (identity name, witness inputs).
    """

    def __init__(self, ok, violation, induced, checked):
        self.ok = ok
        self.violation = violation
        self.induced = induced
        self.checked = checked

    def __bool__(self):
        return self.ok


def factor_through_product(fam, i, j, k, g, add, zero, rng=None, samples=None):
    """Factor a biadditive map g on R_ij x R_jk through multiplication.

    g maps pairs into an abelian group given by (add, zero).  Checks, on an
    exhaustive grid (or `samples` random triples when given), that values of
    g commute, that g is biadditive, and that g(a r, b) == g(a, r b) for r in
    R_jj.  When all hold, returns the induced map f(c) = sum_p g(x_p, y_p c)
    and certifies f(a b) == g(a, b) on the grid.
    """
    if len({i, j, k}) != 3:
        raise IndexClash("factor_through_product needs three distinct labels")
    alg = fam.algebra

    if samples is None:
        lefts = list(fam.component_elements(i, j))
        rights = list(fam.component_elements(j, k))
        mids = list(fam.component_elements(j, j))
        grid = [
            (a, a2, b, b2, r)
            for a in lefts
            for a2 in lefts
            for b in rights
            for b2 in rights
            for r in mids
        ]
    else:
        grid = [
            (
                fam.sample_component(i, j, rng),
                fam.sample_component(i, j, rng),
                fam.sample_component(j, k, rng),
                fam.sample_component(j, k, rng),
                fam.sample_component(j, j, rng),
            )
            for _ in range(samples)
        ]

    checked = 0
    for a, a2, b, b2, r in grid:
        checked += 1
        if add(g(a, b), g(a2, b2)) != add(g(a2, b2), g(a, b)):
            return FactorResult(False, ("commuting-values", (a, b, a2, b2)), None, checked)
        if g(alg.add(a, a2), b) != add(g(a, b), g(a2, b)):
            return FactorResult(False, ("left-additivity", (a, a2, b)), None, checked)
        if g(a, alg.add(b, b2)) != add(g(a, b), g(a, b2)):
            return FactorResult(False, ("right-additivity", (a, b, b2)), None, checked)
        if g(alg.mul(a, r), b) != g(a, alg.mul(r, b)):
            return FactorResult(False, ("middle-associativity", (a, r, b)), None, checked)

    pairs = fam.witnesses(i, j)

    def induced(c):
        acc = zero
        for x, y in pairs:
            acc = add(acc, g(x, alg.mul(y, c)))
        return acc

    for a, _, b, _, _ in grid:
        if induced(alg.mul(a, b)) != g(a, b):
            return FactorResult(False, ("product-agreement", (a, b)), None, checked)

    return FactorResult(True, None, induced, checked)
