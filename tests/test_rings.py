import itertools
import random

import pytest
from hypothesis import given, strategies as st

from sforge import (
    GF,
    MatrixAlgebra,
    NotInvertible,
    Zmod,
    is_quasi_invertible,
    localize_finite,
    quasi_invert,
    random_element,
    ring_from_json,
)
from sforge.rings import NotQuasiInvertible


def test_zmod_ring_axioms_exhaustive():
    R = Zmod(12)
    els = list(R.elements())
    assert len(els) == 12
    for a, b, c in itertools.product(els[:6], els[:6], els):
        assert R.add(a, b) == R.add(b, a)
        assert R.mul(R.add(a, b), c) == R.add(R.mul(a, c), R.mul(b, c))
        assert R.mul(a, R.mul(b, c)) == R.mul(R.mul(a, b), c)
    for a in els:
        assert R.add(a, R.neg(a)) == R.zero
        assert R.mul(a, R.one) == a


def test_zmod_units_and_inverse():
    R = Zmod(12)
    units = [a for a in R.elements() if R.is_unit(a)]
    assert sorted(units) == [1, 5, 7, 11]
    for a in units:
        assert R.mul(a, R.inv(a)) == R.one
    with pytest.raises(NotInvertible):
        R.inv(4)


def test_gf4_field_structure():
    F = GF(2, [1, 1, 1])
    els = list(F.elements())
    assert len(els) == 4
    nonzero = [a for a in els if a != F.zero]
    for a in nonzero:
        assert F.mul(a, F.inv(a)) == F.one
    # Frobenius is additive in characteristic 2
    for a, b in itertools.product(els, els):
        sq = lambda x: F.mul(x, x)
        assert sq(F.add(a, b)) == F.add(sq(a), sq(b))


def test_gf9_inverses():
    F = GF(3, [1, 0, 1])
    nonzero = [a for a in F.elements() if a != F.zero]
    assert len(nonzero) == 8
    for a in nonzero:
        assert F.mul(F.inv(a), a) == F.one


def test_gf_rejects_reducible_polynomial():
    with pytest.raises(Exception):
        GF(2, [1, 0, 1])  # x^2 + 1 = (x + 1)^2 over F_2


def test_matrix_algebra_basic_ops():
    A = MatrixAlgebra(Zmod(4), 2)
    m = A.element([[1, 2], [3, 0]])
    assert A.add(m, A.neg(m)) == A.zero
    assert A.mul(A.one, m) == m
    assert A.scalar_mul(2, m) == A.add(m, m)
    assert A.base == Zmod(4)
    assert A.size == 4 ** 4


def test_matrix_unit_detection_against_pair_scan():
    """is_unit must agree with the existence of a two-sided inverse."""
    A = MatrixAlgebra(Zmod(4), 2)
    els = list(A.elements())
    assert len(els) == 256
    products = {}
    for a in els:
        for b in els:
            if A.mul(a, b) == A.one and A.mul(b, a) == A.one:
                products[a] = b
    claimed = {a for a in els if A.is_unit(a)}
    assert claimed == set(products)
    assert len(claimed) == 96
    for a, b in products.items():
        assert A.inv(a) == b


def test_matrix_inverse_random(rng):
    A = MatrixAlgebra(Zmod(3), 4)
    found = 0
    while found < 50:
        m = random_element(A, rng)
        if not A.is_unit(m):
            continue
        found += 1
        assert A.mul(m, A.inv(m)) == A.one
        assert A.mul(A.inv(m), m) == A.one


def test_ring_json_roundtrip():
    for R in (Zmod(6), GF(2, [1, 1, 1]), MatrixAlgebra(Zmod(4), 3)):
        assert ring_from_json(R.to_json()) == R
    A = MatrixAlgebra(GF(2, [1, 1, 1]), 2)
    rng = random.Random(1)
    for _ in range(10):
        m = random_element(A, rng)
        assert A.element_from_json(A.element_to_json(m)) == m


def test_localize_z12_at_2_kills_the_right_torsion():
    loc = localize_finite(Zmod(12), 2)
    # brute-force the stabilized annihilator of the powers of 2
    ann = {k for k in range(12) if (2 ** 6 * k) % 12 == 0}
    assert set(loc.annihilator) == ann == {0, 3, 6, 9}
    K2 = loc.ring
    assert K2.is_unit(loc.psi(2))
    for x in K2.elements():
        assert loc.psi(loc.lift(x)) == x
    assert loc.warning is None
    # psi is a ring map
    for a in range(12):
        for b in range(12):
            assert loc.psi((a * b) % 12) == K2.mul(loc.psi(a), loc.psi(b))
            assert loc.psi((a + b) % 12) == K2.add(loc.psi(a), loc.psi(b))


def test_localize_at_unit_changes_nothing():
    loc = localize_finite(Zmod(12), 5)
    assert set(loc.annihilator) == {0}
    assert sorted(loc.ring.elements()) == list(range(12))


def test_localize_nilpotent_scale_collapses():
    loc = localize_finite(Zmod(8), 2)
    assert loc.warning is not None
    assert len(list(loc.ring.elements())) == 1


def test_quasi_inverse_value():
    R = Zmod(6)
    b = quasi_invert(R, 3, 2)
    assert b == 3
    assert (2 * 3 * b + 3 + b) % 6 == 0


def test_quasi_inverse_properties_exhaustive():
    R = Zmod(4)
    s = 2
    for a in R.elements():
        if not is_quasi_invertible(R, a, s):
            continue
        b = quasi_invert(R, a, s)
        assert R.add(R.scalar_mul(s, R.mul(a, b)), R.add(a, b)) == R.zero
        assert R.add(R.scalar_mul(s, R.mul(b, a)), R.add(b, a)) == R.zero


def test_quasi_inverse_refuses_non_units():
    with pytest.raises(NotQuasiInvertible):
        quasi_invert(Zmod(6), 1, 1)  # 1 + 1*1 = 2 is not a unit mod 6


def test_circle_product_group_exhaustive():
    """Quasi-invertible elements form a group under x*y*s + x + y."""
    R = Zmod(4)
    s = 2
    circ = lambda x, y: (s * x * y + x + y) % 4
    els = [a for a in R.elements() if is_quasi_invertible(R, a, s)]
    for x in els:
        assert circ(x, 0) == x
        b = quasi_invert(R, x, s)
        assert circ(x, b) == 0
        for y in els:
            assert is_quasi_invertible(R, circ(x, y), s)
            for z in els:
                assert circ(circ(x, y), z) == circ(x, circ(y, z))


def test_random_element_is_seed_deterministic():
    A = MatrixAlgebra(Zmod(5), 3)
    xs = [random_element(A, random.Random(99)) for _ in range(3)]
    assert xs[0] == xs[1] == xs[2]


@given(st.integers(min_value=2, max_value=40), st.integers(), st.integers())
def test_zmod_matches_integer_arithmetic(m, a, b):
    R = Zmod(m)
    x, y = a % m, b % m
    assert R.add(x, y) == (a + b) % m
    assert R.mul(x, y) == (a * b) % m
    assert R.neg(x) == (-a) % m
