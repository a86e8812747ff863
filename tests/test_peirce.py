import itertools
import random

import pytest

from sforge import (
    BadFamily,
    IdempotentFamily,
    IndexClash,
    Letter,
    MatrixAlgebra,
    NotInvertible,
    Zmod,
    family_from_json,
    morita_decompose,
)
from sforge.words import split_letters


def test_projection_cuts_one_block():
    A = MatrixAlgebra(Zmod(4), 2)
    fam = IdempotentFamily.matrix_units(A)
    m = A.element([[1, 2], [3, 0]])
    assert fam.project(m, 1, 2) == (2,)
    assert fam.project(m, 2, 1) == (3,)
    assert fam.project(m, 1, 1) == (1,)
    assert fam.to_matrix(fam.project(m, 1, 2), 1, 2) == A.element([[0, 2], [0, 0]])
    assert fam.to_matrix(fam.project(m, 2, 1), 2, 1) == A.element([[0, 0], [3, 0]])
    assert fam.to_matrix(fam.project(m, 1, 1), 1, 1) == A.element([[1, 0], [0, 0]])


def test_projections_sum_to_identity_map(rng):
    A = MatrixAlgebra(Zmod(4), 3)
    fam = IdempotentFamily(A, [[0, 1], [2]])
    for _ in range(50):
        from sforge import random_element

        m = random_element(A, rng)
        total = A.zero
        for i in fam.labels():
            for j in fam.labels():
                total = A.add(total, fam.to_matrix(fam.project(m, i, j), i, j))
        assert total == m


def test_restrict_reads_a_label_out_of_a_tuple_label(rng):
    """Block values of R_IJ restricted to (i, j) agree with projecting
    the matrix straight to (i, j), also when the blocks of J interleave."""
    from sforge import random_element

    A = MatrixAlgebra(Zmod(4), 5)
    fam = IdempotentFamily(A, [[1], [0, 3], [2, 4]])
    I, J = (1, 2), (2, 3)
    for _ in range(20):
        m = random_element(A, rng)
        for i, j in itertools.product(I, J):
            assert fam.restrict(fam.project(m, I, J), I, J, i, j) == fam.project(m, i, j)
        for j in J:
            assert fam.restrict(fam.project(m, 1, J), 1, J, 1, j) == fam.project(m, 1, j)


def test_family_constructor_validates_partition():
    A = MatrixAlgebra(Zmod(2), 4)
    with pytest.raises(BadFamily):
        IdempotentFamily(A, [[0, 1], [1, 2, 3]])
    with pytest.raises(BadFamily):
        IdempotentFamily(A, [[0], [1]])
    with pytest.raises(BadFamily):
        IdempotentFamily(A, [[0, 1, 2, 3], []])


def test_idempotent_family_checker_passes_blocked(m4f2):
    """Idempotence, orthogonality, completeness and the witness sums hold
    on a blocked family with an interleaved block and on a units family."""
    A = m4f2.algebra
    for fam in (IdempotentFamily(A, [[0, 2], [1], [3]]), m4f2):
        total = A.zero
        for i in fam.labels():
            e = fam.idempotent(i)
            assert A.mul(e, e) == e
            total = A.add(total, e)
            for j in fam.labels():
                if i == j:
                    continue
                assert A.mul(e, fam.idempotent(j)) == A.zero
                acc = A.zero
                for x, y in fam.witnesses(i, j):
                    assert (len(x), len(y)) == (len(fam.cells(i, j)), len(fam.cells(j, i)))
                    acc = A.add(acc, A.mul(fam.to_matrix(x, i, j), fam.to_matrix(y, j, i)))
                assert acc == e
        assert total == A.one


def test_witnesses_recompose_the_idempotent(rng):
    A = MatrixAlgebra(Zmod(3), 3)
    fam = IdempotentFamily(A, [[0, 1], [2]])
    for i in fam.labels():
        for j in fam.labels():
            if i == j:
                continue
            total = A.zero
            for x, y in fam.witnesses(i, j):
                total = A.add(total, A.mul(fam.to_matrix(x, i, j), fam.to_matrix(y, j, i)))
            assert total == fam.idempotent(i)


def test_morita_decomposition_recomposes(rng):
    A = MatrixAlgebra(Zmod(3), 3)
    fam = IdempotentFamily.matrix_units(A)
    for _ in range(200):
        i, j, k = rng.sample([1, 2, 3], 3)
        c = fam.sample_component(i, k, rng)
        total = A.zero
        for a, b in morita_decompose(fam, c, i, j, k):
            assert len(a) == len(fam.cells(i, j))
            assert len(b) == len(fam.cells(j, k))
            total = A.add(total, A.mul(fam.to_matrix(a, i, j), fam.to_matrix(b, j, k)))
        assert total == fam.to_matrix(c, i, k)


def test_morita_decomposition_rejects_bad_aux(m3z4):
    c = m3z4.sample_component(1, 3, random.Random(0))
    with pytest.raises(IndexClash):
        morita_decompose(m3z4, c, 1, 1, 3)


def test_component_membership_and_sizes(m3z4, monkeypatch):
    assert m3z4.component_size(1, 2) == 4
    els = list(m3z4.component_elements(1, 2))
    assert len(els) == 4 == len(set(els))
    for a in els:
        m = m3z4.to_matrix(a, 1, 2)
        assert m3z4.is_zero(m3z4.project(m, 2, 1))
        assert m3z4.project(m, 1, 2) == a
    # a sample draws each value without listing the base ring
    def refuse(self):
        raise AssertionError("sample_component listed the base ring")

    monkeypatch.setattr(Zmod, "elements", refuse)
    big = IdempotentFamily(MatrixAlgebra(Zmod(10 ** 12), 2), [[0, 1]])
    a = big.sample_component(1, 1, random.Random(3))
    assert len(a) == 4 and all(0 <= x < 10 ** 12 for x in a)


def test_corner_inverse_via_global_unit(m3z4):
    A = m3z4.algebra
    u = (3,)  # 3 is a unit mod 4
    v = m3z4.corner_inv(u, 1)
    U, V = m3z4.to_matrix(u, 1, 1), m3z4.to_matrix(v, 1, 1)
    assert U == A.unit_matrix(0, 0, 3)
    assert A.mul(U, V) == m3z4.idempotent(1)
    assert A.mul(V, U) == m3z4.idempotent(1)
    with pytest.raises(NotInvertible):
        m3z4.corner_inv((2,), 1)


def test_merge_places_united_block_last(m4f2):
    coarse, ref = m4f2.merge(2, 3)
    assert coarse.blocks == ((0,), (3,), (1, 2))
    assert (ref.label_map[1], ref.label_map[4]) == (1, 2)
    assert ref.fine is m4f2
    assert ref.coarse is coarse
    assert ref.label_map[2] == ref.label_map[3] == len(coarse.blocks)
    # projections agree blockwise after relabeling
    rng = random.Random(5)
    from sforge import random_element

    A = m4f2.algebra
    for _ in range(20):
        m = random_element(A, rng)
        for p in coarse.labels():
            for q in coarse.labels():
                fine_sum = A.zero
                letters = []
                for i in ref.fine_of[p]:
                    for j in ref.fine_of[q]:
                        fine_sum = A.add(fine_sum, m4f2.to_matrix(m4f2.project(m, i, j), i, j))
                        if not m4f2.is_zero(m4f2.project(m, i, j)):
                            letters.append(Letter(i, j, m4f2.project(m, i, j)))
                        # extend() puts it back, zero on the other fine blocks
                        fine = m4f2.to_matrix(m4f2.project(m, i, j), i, j)
                        assert ref.extend(m4f2.project(m, i, j), i, j) == coarse.project(fine, p, q)
                # split_letters reads the nonzero fine blocks off the coarse one
                cut = split_letters(m4f2, coarse.project(m, p, q), ref.fine_of[p], ref.fine_of[q])
                assert cut == letters
                assert coarse.to_matrix(coarse.project(m, p, q), p, q) == fine_sum


def test_double_merge_partition_is_order_free():
    """Merging blocks 1, 2 and then 3, 4 of five gives the same partition,
    and sends each fine label to the same class, as the other order."""
    fam = IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(2), 5))

    def merge_twice(first, second):
        once, ref1 = fam.merge(*first)
        twice, ref2 = once.merge(*(ref1.label_map[t] for t in second))
        classes = {}
        for t in fam.labels():
            classes.setdefault(ref2.label_map[ref1.label_map[t]], set()).add(t)
        return set(twice.blocks), {frozenset(c) for c in classes.values()}

    blocks, classes = merge_twice((1, 2), (3, 4))
    assert (blocks, classes) == merge_twice((3, 4), (1, 2))
    assert blocks == {(0, 1), (2, 3), (4,)}
    assert classes == {frozenset({1, 2}), frozenset({3, 4}), frozenset({5})}


def test_family_json_roundtrip(m4f2):
    desc = m4f2.to_json()
    back = family_from_json(m4f2.algebra, desc)
    assert back == m4f2
    assert family_from_json(m4f2.algebra, "units") == m4f2
