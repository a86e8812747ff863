"""Differential tests: table-driven GF(p^d) arithmetic against polynomials.

GF looks every operation up in log, antilog, Zech and negation tables.
The references below compute in F_p[t] modulo f, the way GF computed
before the tables: coefficient-wise addition, a polynomial product
reduced mod f, and the inverse by the extended Euclidean algorithm.
"""

import itertools
import random

import pytest

from sforge import GF, MatrixAlgebra, NotInvertible, random_element
from sforge.rings import _poly_mod, _poly_trim

FIELDS = {
    "GF(2)": (2, [1, 1]),
    "GF(5)": (5, [1, 1]),
    "GF(7)": (7, [3, 1]),
    "GF(4)": (2, [1, 1, 1]),
    "GF(8)": (2, [1, 1, 0, 1]),
    "GF(8)'": (2, [1, 0, 1, 1]),
    "GF(9)": (3, [1, 0, 1]),  # t has order 4: not primitive
    "GF(25)": (5, [2, 0, 1]),
    "GF(27)": (3, [1, 2, 0, 1]),
}


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_divmod(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]
    _poly_trim(b)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - len(b) + 1)
    r = list(a)
    _poly_trim(r)
    while len(r) >= len(b):
        c = (r[-1] * inv_lead) % p
        k = len(r) - len(b)
        q[k] = c
        for t, bc in enumerate(b):
            r[k + t] = (r[k + t] - c * bc) % p
        _poly_trim(r)
    return q, r


def ref_add(F, a, b):
    return tuple((x + y) % F.p for x, y in zip(a, b))


def ref_sub(F, a, b):
    return tuple((x - y) % F.p for x, y in zip(a, b))


def ref_neg(F, a):
    return tuple(-x % F.p for x in a)


def ref_mul(F, a, b):
    return tuple(_poly_mod(poly_mul(list(a), list(b)), list(F.f), F.p))


def ref_inv(F, a):
    """The inverse by extended Euclid in F_p[t]: u*a + v*f = gcd = const."""
    p = F.p
    r0, r1 = list(F.f), _poly_trim(list(a))
    s0, s1 = [0], [1]
    while True:
        q, r = _poly_divmod(r0, r1, p)
        if not r:
            break
        s = [c % p for c in poly_sub(s0, poly_mul(q, s1))]
        r0, s0, r1, s1 = r1, s1, r, s
    c = pow(r1[-1] if len(r1) > 1 else r1[0], -1, p)
    return F.element([(c * x) % p for x in s1])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_pair_matches_polynomial_arithmetic(name):
    F = GF(*FIELDS[name])
    els = list(F.elements())
    assert len(els) == F.size == len(set(els))
    for a in els:
        assert F.neg(a) == ref_neg(F, a)
        if a == F.zero:
            with pytest.raises(NotInvertible):
                F.inv(a)
        else:
            assert F.inv(a) == ref_inv(F, a)
            assert F.mul(a, F.inv(a)) == F.one
        for b in els:
            assert F.add(a, b) == ref_add(F, a, b)
            assert F.sub(a, b) == ref_sub(F, a, b)
            assert F.mul(a, b) == ref_mul(F, a, b)


def test_large_field_matches_on_random_pairs():
    # AES's modulus t^8 + t^4 + t^3 + t + 1: t has order 51, t + 1 is primitive
    F = GF(2, [1, 1, 0, 1, 1, 0, 0, 0, 1])
    rng = random.Random(8)
    for _ in range(2000):
        a = tuple(rng.randrange(2) for _ in range(8))
        b = tuple(rng.randrange(2) for _ in range(8))
        assert F.add(a, b) == ref_add(F, a, b)
        assert F.sub(a, b) == ref_sub(F, a, b)
        assert F.mul(a, b) == ref_mul(F, a, b)
        if a != F.zero:
            assert F.inv(a) == ref_inv(F, a)


def test_modulus_irreducibility_matches_a_divisor_search():
    """GF accepts exactly the monic moduli no monic polynomial of degree
    1 .. d // 2 divides: every modulus of degree <= 6 over F_2, <= 4 over
    F_3, <= 3 over F_5 and <= 2 over F_7."""
    checked = 0
    for p, top in ((2, 6), (3, 4), (5, 3), (7, 2)):
        for d in range(1, top + 1):
            for tail in itertools.product(range(p), repeat=d):
                f = list(tail) + [1]
                reducible = any(
                    not _poly_divmod(f, list(g) + [1], p)[1]
                    for k in range(1, d // 2 + 1)
                    for g in itertools.product(range(p), repeat=k)
                )
                if reducible:
                    with pytest.raises(ValueError, match="irreducible"):
                        GF(p, f)
                else:
                    assert GF(p, f).size == p ** d
                checked += 1
    assert checked == 457


def dense_product(F, a, b):
    """The matrix product by reference arithmetic, zero terms included."""
    n = len(a)
    out = [[F.zero] * n for _ in range(n)]
    for i, k, j in itertools.product(range(n), repeat=3):
        out[i][j] = ref_add(F, out[i][j], ref_mul(F, a[i][k], b[k][j]))
    return tuple(map(tuple, out))


@pytest.mark.parametrize("name", ["GF(4)", "GF(9)"])
def test_matrix_product_skips_only_zero_terms(name, monkeypatch):
    """The generic product equals the dense one, with one field mul and one
    field add per pair of nonzero factors, as before rows were made sparse."""
    F = GF(*FIELDS[name])
    alg = MatrixAlgebra(F, 4)
    rng = random.Random(4)
    calls = {"add": 0, "mul": 0}
    for op in ("add", "mul"):
        real = getattr(GF, op)

        def counted(self, a, b, real=real, op=op):
            calls[op] += 1
            return real(self, a, b)

        monkeypatch.setattr(GF, op, counted)
    for density in (0.0, 0.3, 0.7, 1.0):
        for _ in range(10):
            a, b = (
                tuple(
                    tuple(
                        random_element(F, rng) if rng.random() < density else F.zero
                        for _ in range(4)
                    )
                    for _ in range(4)
                )
                for _ in range(2)
            )
            calls.update(add=0, mul=0)
            got = alg.mul(a, b)
            terms = sum(
                a[i][k] != F.zero and b[k][j] != F.zero
                for i, k, j in itertools.product(range(4), repeat=3)
            )
            assert calls == {"add": terms, "mul": terms}
            assert got == dense_product(F, a, b)
