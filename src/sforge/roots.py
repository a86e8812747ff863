"""Type-A root combinatorics on index pairs, with quotients by a root.

A root here is an ordered pair of distinct block labels: Root(row, col)
stands for the vector e_col - e_row and is the root whose one-parameter
subgroup is x_{row,col}(*).  Quotienting by a root merges its two labels;
the merged class is always relabeled to come last.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .rings import SforgeError


class ParallelRoots(SforgeError):
    """The series of beta along alpha is requested for beta = +-alpha."""


@dataclass(frozen=True, order=True)
class Root:
    row: int
    col: int

    def __post_init__(self):
        if self.row == self.col:
            raise ValueError("a root needs two distinct labels")

    def negated(self):
        return Root(self.col, self.row)

    def to_json(self):
        return [self.col, self.row]


class RootSystemA:
    """The A_{k-1} system on k classes; classes remember merged fine labels."""

    def __init__(self, n, classes=None):
        if classes is None:
            classes = tuple((t,) for t in range(1, n + 1))
        self.classes = tuple(tuple(sorted(c)) for c in classes)
        self.k = len(self.classes)

    def labels(self):
        return range(1, self.k + 1)

    def roots(self):
        return [
            Root(i, j)
            for i in self.labels()
            for j in self.labels()
            if i != j
        ]

    def contains(self, root):
        return 1 <= root.row <= self.k and 1 <= root.col <= self.k

    def vector(self, root):
        v = [0] * self.k
        v[root.col - 1] += 1
        v[root.row - 1] -= 1
        return tuple(v)

    def _root_of_vector(self, v):
        pos = [t for t, x in enumerate(v) if x == 1]
        neg = [t for t, x in enumerate(v) if x == -1]
        if len(pos) == 1 and len(neg) == 1 and all(x in (-1, 0, 1) for x in v):
            return Root(neg[0] + 1, pos[0] + 1)
        return None

    def alpha_series(self, beta, alpha):
        """The roots beta + p*alpha, listed in increasing p order."""
        if beta in (alpha, alpha.negated()):
            raise ParallelRoots("series undefined for beta parallel to alpha")
        va = self.vector(alpha)
        vb = self.vector(beta)
        out = []
        for p in range(-2, 3):
            v = tuple(b + p * a for a, b in zip(va, vb))
            r = self._root_of_vector(v)
            if r is not None:
                out.append(r)
        return out

    def quotient(self, alpha):
        """Merge the two classes of alpha; returns (quotient, label_map).

        label_map sends old labels to new ones; the merged class is last.
        """
        p, q = alpha.row, alpha.col
        keep = [t for t in self.labels() if t not in (p, q)]
        classes = [self.classes[t - 1] for t in keep]
        classes.append(tuple(sorted(self.classes[p - 1] + self.classes[q - 1])))
        label_map = {t: k + 1 for k, t in enumerate(keep)}
        label_map[p] = label_map[q] = len(keep) + 1
        return RootSystemA(0, classes), label_map

    def partition(self):
        """The underlying partition as a canonical frozenset of frozensets."""
        return frozenset(frozenset(c) for c in self.classes)

    def automorphism_group(self):
        """All (permutation, flip) automorphisms, as callables; size 2 * k!."""
        out = []
        for perm in itertools.permutations(range(1, self.k + 1)):
            for flip in (False, True):

                def act(r, perm=perm, flip=flip):
                    rr = Root(perm[r.row - 1], perm[r.col - 1])
                    return rr.negated() if flip else rr

                out.append(act)
        return out

    def __eq__(self, other):
        return isinstance(other, RootSystemA) and other.classes == self.classes

    def __hash__(self):
        return hash(self.classes)

    def __repr__(self):
        return "RootSystemA(classes=%r)" % (self.classes,)
