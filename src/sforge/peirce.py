"""Complete families of Morita-equivalent orthogonal idempotents.

A family over a matrix algebra M(m, A) is given by a partition of the m
diagonal positions into n nonempty blocks; e_i is the diagonal 0/1 matrix of
the i-th block.  Matrix-unit families are the all-singleton partition.

An element of a Peirce component R_ij = e_i R e_j is stored as its block
values: the tuple of its entries at cells(i, j), the |block i| x |block j|
positions of the component, row by row.  project() reads those values off
an n x n matrix, write() is the one writer that puts them back, and
block_mul() multiplies two components without forming either matrix.
cell_index(), where the cells of one component sit among those of a
larger one, is the one positional restriction.  corner_inv() is also the
corner unit test: a corner is a unit exactly when it inverts.

Each ordered pair (i, j) carries Morita witnesses: pairs (x_p, y_p) with
x_p in R_ij, y_p in R_ji and sum_p x_p y_p = e_i.  They certify
e_i in R e_j R and drive the decomposition of any c in R_ik as
c = sum_p x_p (y_p c).
"""

from __future__ import annotations

import itertools
import operator

from .rings import MatrixAlgebra, SforgeError, is_json_int


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
        self._witnesses = {}
        self._cells = {}
        self._tuple_positions = {}
        self._inner = {}
        self._corner_algebras = {}
        # cell_table[i][j] is cells(i, j) for labels i and j, built once here
        # for MatrixAlgebra.fold_columns; entry 0 at each depth is unused
        self.cell_table = [None] + [
            [None] + [self.cells(i, j) for j in self.labels()] for i in self.labels()
        ]

    @classmethod
    def matrix_units(cls, algebra):
        return cls(algebra, [[p] for p in range(algebra.n)])

    def labels(self):
        return range(1, self.n + 1)

    def idempotent(self, i):
        """e_i, the diagonal 0/1 matrix of block i."""
        return self.to_matrix(self.project(self.algebra.one, i, i), i, i)

    def support(self, i):
        return self.blocks[i - 1]

    def cells(self, i, j):
        """The matrix positions (r, c) of the component R_ij, row by row.

        i and j are block labels, or tuples of labels standing for the sum
        of their idempotents.  Label pairs are built on construction, for
        cell_table; tuple labels on first use, and cached.
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

    def write(self, m, a, i, j):
        """The matrix m with the block values a written on cells(i, j).

        i and j may be tuples of labels, as in cells().
        """
        out = [list(row) for row in m]
        for (r, c), v in zip(self.cells(i, j), a):
            out[r][c] = v
        return tuple(map(tuple, out))

    def to_matrix(self, a, i, j):
        """The n x n matrix of the block values a of R_ij, zero off its cells."""
        return self.write(self.algebra.zero, a, i, j)

    def cell_index(self, I, J, i, j):
        """Where each cell of (i, j) sits among the cells of (I, J).

        I and J are tuples of labels, or labels, with i in I and j in J.
        Found on first use and cached.
        """
        got = self._inner.get((I, J, i, j))
        if got is None:
            at = {cell: t for t, cell in enumerate(self.cells(I, J))}
            got = tuple(at[cell] for cell in self.cells(i, j))
            self._inner[(I, J, i, j)] = got
        return got

    def restrict(self, a, I, J, i, j):
        """The block values of e_i a e_j, for block values a of R_IJ."""
        return tuple([a[t] for t in self.cell_index(I, J, i, j)])

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
        """A uniform element of R_ij, as block values: one draw per cell.

        Each draw is the base ring's choice(rng), which lists no elements.
        """
        choice = self.algebra.base.choice
        return tuple([choice(rng) for _ in self.cells(i, j)])

    def corner_inv(self, u, i):
        """The block values of the inverse of u inside the corner e_i R e_i.

        Raises NotInvertible when u is not a corner unit, so inverting is
        also the unit test.  i may be a tuple of labels, as in cells().
        """
        k = len(self._positions(i))
        alg = self._corner_algebras.get(k)
        if alg is None:
            alg = self._corner_algebras[k] = MatrixAlgebra(self.algebra.base, k)
        block = tuple(tuple(u[r * k:(r + 1) * k]) for r in range(k))
        return tuple([x for row in alg.inv(block) for x in row])

    def merge(self, p, q):
        """Merge blocks p and q; the merged class is placed last.

        The other blocks keep their order.  Returns (coarse family,
        Refinement), whose label_map sends each fine label to its coarse
        one, p and q to the last.
        """
        if p == q:
            raise IndexClash("cannot merge a block with itself")
        keep = [t for t in self.labels() if t not in (p, q)]
        blocks = [self.blocks[t - 1] for t in keep]
        blocks.append(self.blocks[p - 1] + self.blocks[q - 1])
        label_map = {t: k for k, t in enumerate(keep, start=1)}
        label_map[p] = label_map[q] = len(blocks)
        coarse = IdempotentFamily(self.algebra, blocks)
        return coarse, Refinement(self, coarse, label_map)

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
    the coarse component of its classes; extend() puts fine block values
    there, and words.split_letters cuts coarse ones into fine letters.
    fine_of sends a coarse label to the tuple of fine labels in its class,
    whose cells are the coarse cells, since blocks are sorted on
    construction.
    """

    def __init__(self, fine, coarse, label_map):
        self.fine = fine
        self.coarse = coarse
        self.label_map = label_map
        self.fine_of = {
            c: tuple(sorted(f for f in label_map if label_map[f] == c))
            for c in coarse.labels()
        }

    def extend(self, a, i, j):
        """The coarse block values of fine block values a of R_ij."""
        I, J = self.fine_of[self.label_map[i]], self.fine_of[self.label_map[j]]
        out = [self.fine.algebra.base.zero] * len(self.fine.cells(I, J))
        for t, v in zip(self.fine.cell_index(I, J, i, j), a):
            out[t] = v
        return tuple(out)


def family_from_json(algebra, obj):
    """The family of a config: "units", or a list of blocks of positions,
    bare or as {"blocks": [...]}; every position must be a JSON integer."""
    if obj == "units":
        return IdempotentFamily.matrix_units(algebra)
    if isinstance(obj, dict):
        obj = obj.get("blocks")
    if not isinstance(obj, list) or not all(
        isinstance(b, list) and all(map(is_json_int, b)) for b in obj
    ):
        raise BadFamily("blocks must be lists of integer positions, got %r" % (obj,))
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
