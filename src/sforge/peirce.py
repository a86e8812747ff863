"""Complete families of Morita-equivalent orthogonal idempotents.

A family over a matrix algebra M(m, A) is given by a partition of the m
diagonal positions into n nonempty blocks; e_i is the diagonal 0/1 matrix of
the i-th block.  Matrix-unit families are the all-singleton partition.

An element of a Peirce component R_ij = e_i R e_j is stored as its block
values: the tuple of its entries at cells(i, j), the |block i| x |block j|
positions of the component, row by row.  project() reads those values off
an n x n matrix, to_matrix() puts them back, and block_mul() multiplies
two components without forming either matrix.

Each ordered pair (i, j) carries Morita witnesses: pairs (x_p, y_p) with
x_p in R_ij, y_p in R_ji and sum_p x_p y_p = e_i.  They certify
e_i in R e_j R and drive the decomposition of any c in R_ik as
c = sum_p x_p (y_p c).
"""

from __future__ import annotations

import itertools
import operator

from .rings import MatrixAlgebra, SforgeError
from .roots import Root, RootSystemA


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
        self._tuple_positions = {}
        self._inner = {}
        self._corner_algebras = {}

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
            got = self._tuple_positions.get(labels)
            if got is None:
                got = tuple(sorted(p for t in labels for p in self.blocks[t - 1]))
                self._tuple_positions[labels] = got
            return got
        return self.blocks[labels - 1]

    def project(self, a, i, j):
        """The block values of e_i a e_j, read positionally off the matrix a.

        i and j may be tuples of labels, as in cells().
        """
        return tuple([a[r][c] for r, c in self.cells(i, j)])

    def to_matrix(self, a, i, j):
        """The n x n matrix of the block values a of R_ij, zero off its cells."""
        out = [list(row) for row in self.algebra.zero]
        for (r, c), v in zip(self.cells(i, j), a):
            out[r][c] = v
        return tuple(map(tuple, out))

    def restrict(self, a, I, J, i, j):
        """The block values of e_i a e_j, for block values a of R_IJ.

        I and J are tuples of labels, or labels, with i in I and j in J.
        Where each cell of (i, j) sits among the cells of (I, J) is found
        on first use and cached.
        """
        got = self._inner.get((I, J, i, j))
        if got is None:
            at = {cell: t for t, cell in enumerate(self.cells(I, J))}
            got = tuple(at[cell] for cell in self.cells(i, j))
            self._inner[(I, J, i, j)] = got
        return tuple([a[t] for t in got])

    def contains(self, a, i, j):
        """Is the n x n matrix a in R_ij, that is, zero off the cells of (i, j)?"""
        zero = self.algebra.base.zero
        nonzero = sum(x != zero for row in a for x in row)
        return nonzero == sum(a[r][c] != zero for r, c in self.cells(i, j))

    def is_zero(self, a):
        """Are the block values a all zero?"""
        return a.count(self.algebra.base.zero) == len(a)

    def block_mul(self, a, i, j, b, k):
        """The block values of ab in R_ik, for a in R_ij and b in R_jk.

        A product of the |i| x |j| and |j| x |k| blocks: O(|i| |j| |k|)
        ring operations, not the O(n^3) of a matrix product.  Labels may be
        tuples, as in cells().
        """
        mid = len(self._positions(j))
        cols = len(self._positions(k))
        # row r of a and column c of b, both read off the row-major values
        pairs = [
            (a[r:r + mid], b[c::cols]) for r in range(0, len(a), mid) for c in range(cols)
        ]
        m = self.algebra._mod
        if m is not None:
            return tuple([sum(map(operator.mul, row, col)) % m for row, col in pairs])
        base = self.algebra.base
        zero = base.zero
        out = []
        for row, col in pairs:
            acc = zero
            for x, y in zip(row, col):
                if x != zero and y != zero:
                    acc = base.add(acc, base.mul(x, y))
            out.append(acc)
        return tuple(out)

    def witnesses(self, i, j):
        """Morita witness pairs for (i, j), as block values of R_ij and R_ji:
        x_p = E_{r, c0} and y_p = E_{c0, r} for r in block i and c0 the
        first position of block j, so sum_p x_p y_p == e_i."""
        if i == j:
            raise IndexClash("witnesses need two distinct block labels")
        got = self._witnesses.get((i, j))
        if got is None:
            base = self.algebra.base
            c0 = self.blocks[j - 1][0]

            def unit(cells, cell):
                return tuple(base.one if rc == cell else base.zero for rc in cells)

            got = tuple(
                (unit(self.cells(i, j), (r, c0)), unit(self.cells(j, i), (c0, r)))
                for r in self.blocks[i - 1]
            )
            self._witnesses[(i, j)] = got
        return got

    def component_size(self, i, j):
        return self.algebra.base.size ** (
            len(self.blocks[i - 1]) * len(self.blocks[j - 1])
        )

    def component_elements(self, i, j):
        """All elements of R_ij, as block values."""
        pool = list(self.algebra.base.elements())
        return itertools.product(pool, repeat=len(self.cells(i, j)))

    def sample_component(self, i, j, rng):
        """A uniform element of R_ij, as block values: one draw per cell."""
        pool = list(self.algebra.base.elements())
        return tuple([rng.choice(pool) for _ in self.cells(i, j)])

    def corner_is_unit(self, u, i):
        """Are the block values u of R_ii invertible in the corner ring e_i R e_i?

        i may be a tuple of labels, as in cells().
        """
        alg, block = self._corner(u, i)
        return alg.is_unit(block)

    def corner_inv(self, u, i):
        """The block values of the inverse of u inside the corner e_i R e_i;
        raises NotInvertible.  i may be a tuple of labels."""
        alg, block = self._corner(u, i)
        return tuple([x for row in alg.inv(block) for x in row])

    def _corner(self, u, i):
        """(M(k, base) for the k positions of i, the k x k matrix of the
        block values u of R_ii)."""
        k = len(self._positions(i))
        alg = self._corner_algebras.get(k)
        if alg is None:
            alg = self._corner_algebras[k] = MatrixAlgebra(self.algebra.base, k)
        return alg, tuple(tuple(u[r * k:(r + 1) * k]) for r in range(k))

    def merge(self, p, q):
        """Merge blocks p and q; the merged class is placed last.

        Returns (coarse family, Refinement).
        """
        if p == q:
            raise IndexClash("cannot merge a block with itself")
        quo, label_map = RootSystemA(0, self.blocks).quotient(Root(p, q))
        coarse = IdempotentFamily(self.algebra, quo.classes)
        return coarse, Refinement(self, coarse, (p, q), label_map)

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
    """Bookkeeping for one merge step between a fine and a coarse family.

    Both families share the algebra, so a fine component R_ij sits inside
    the coarse component of its classes; restrict() and extend() move block
    values between the two.
    """

    def __init__(self, fine, coarse, fine_pair, label_map):
        self.fine = fine
        self.coarse = coarse
        self.fine_pair = fine_pair
        self.label_map = label_map
        self.fine_of = {}
        for f, c in label_map.items():
            self.fine_of.setdefault(c, []).append(f)
        for c in self.fine_of:
            self.fine_of[c].sort()
        self._where = {}

    def _index(self, i, j):
        """Where each fine cell of (i, j) sits among the coarse cells."""
        got = self._where.get((i, j))
        if got is None:
            coarse = self.coarse.cells(self.label_map[i], self.label_map[j])
            at = {cell: t for t, cell in enumerate(coarse)}
            got = self._where[(i, j)] = tuple(at[cell] for cell in self.fine.cells(i, j))
        return got

    def restrict(self, a, i, j):
        """The fine block values e_i a e_j of coarse block values a."""
        return tuple([a[t] for t in self._index(i, j)])

    def extend(self, a, i, j):
        """The coarse block values of fine block values a of R_ij."""
        I, J = self.label_map[i], self.label_map[j]
        out = [self.fine.algebra.base.zero] * len(self.coarse.cells(I, J))
        for t, v in zip(self._index(i, j), a):
            out[t] = v
        return tuple(out)


def family_from_json(algebra, obj):
    if obj == "units":
        return IdempotentFamily.matrix_units(algebra)
    if isinstance(obj, dict):
        obj = obj.get("blocks")
    return IdempotentFamily(algebra, obj)


def morita_decompose(fam, c, i, j, k):
    """Write c in R_ik as sum_p a_p b_p with a_p in R_ij, b_p in R_jk.

    Uses the stored witnesses for (i, j): a_p = x_p, b_p = y_p c.  All
    elements are block values.  Zero factors are dropped; c = 0 gives the
    empty list.
    """
    if j in (i, k):
        raise IndexClash("auxiliary index must differ from both endpoints")
    if len(c) != len(fam.cells(i, k)):
        raise BadFamily("element does not lie in the requested Peirce component")
    out = []
    for x, y in fam.witnesses(i, j):
        b = fam.block_mul(y, j, i, c, k)
        if not fam.is_zero(b):
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
                if (len(x), len(y)) != (len(fam.cells(i, j)), len(fam.cells(j, i))):
                    bad.append(("witness-membership", (i, j)))
                acc = alg.add(acc, alg.mul(fam.to_matrix(x, i, j), fam.to_matrix(y, j, i)))
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

    g takes and the induced map f returns n x n matrices of R, and g maps
    pairs into an abelian group given by (add, zero).  Checks, on an
    exhaustive grid (or `samples` random triples when given), that values of
    g commute, that g is biadditive, and that g(a r, b) == g(a, r b) for r in
    R_jj.  When all hold, returns the induced map f(c) = sum_p g(x_p, y_p c)
    and certifies f(a b) == g(a, b) on the grid.
    """
    if len({i, j, k}) != 3:
        raise IndexClash("factor_through_product needs three distinct labels")
    alg = fam.algebra

    def elements(p, q):
        return [fam.to_matrix(a, p, q) for a in fam.component_elements(p, q)]

    def sample(p, q):
        return fam.to_matrix(fam.sample_component(p, q, rng), p, q)

    if samples is None:
        lefts = elements(i, j)
        rights = elements(j, k)
        mids = elements(j, j)
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
            (sample(i, j), sample(i, j), sample(j, k), sample(j, k), sample(j, j))
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

    pairs = [(fam.to_matrix(x, i, j), fam.to_matrix(y, j, i)) for x, y in fam.witnesses(i, j)]

    def induced(c):
        acc = zero
        for x, y in pairs:
            acc = add(acc, g(x, alg.mul(y, c)))
        return acc

    for a, _, b, _, _ in grid:
        if induced(alg.mul(a, b)) != g(a, b):
            return FactorResult(False, ("product-agreement", (a, b)), None, checked)

    return FactorResult(True, None, induced, checked)
