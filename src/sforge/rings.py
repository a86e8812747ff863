"""Exact arithmetic for finite base rings and matrix algebras.

Rings are objects that own the arithmetic; elements are plain hashable data
(ints for Zmod, coefficient tuples for GF, nested tuples of rows for
matrices).  No floats are used anywhere: every operation is exact.

The three ring kinds:

    Zmod(m)            integers modulo m
    GF(p, f)           the field F_{p^d}, f a monic irreducible of degree d
    MatrixAlgebra(A,n) n-by-n matrices over a base ring A

Matrix algebras may be nested; determinants and inverses of nested matrices
are computed after flattening down to a commutative base.
"""

from __future__ import annotations

import itertools
import math
import operator


class SforgeError(Exception):
    """Base class for all errors raised by this package."""


class NotInvertible(SforgeError):
    """An element required to be a unit is not one."""


class NotQuasiInvertible(SforgeError):
    """No two-sided quasi-inverse exists at the requested scale."""


def _is_prime(m):
    if m < 2:
        return False
    for p in range(2, int(math.isqrt(m)) + 1):
        if m % p == 0:
            return False
    return True


def _prime_factors(m):
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


class Zmod:
    """The ring of integers modulo m; elements are canonical ints in range(m)."""

    kind = "Zmod"

    def __init__(self, m):
        if m < 1:
            raise ValueError("modulus must be a positive integer")
        self.m = m
        self.zero = 0
        self.one = 1 % m
        self.size = m

    def element(self, v):
        return int(v) % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def neg(self, a):
        return -a % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def elements(self):
        return iter(range(self.m))

    def units(self):
        return [a for a in range(self.m) if math.gcd(a, self.m) == 1]

    def is_unit(self, a):
        return math.gcd(a, self.m) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible("%d is not a unit modulo %d" % (a, self.m))
        return pow(a, -1, self.m)

    @property
    def scalar_ring(self):
        return self

    def scalar_mul(self, s, a):
        return (s * a) % self.m

    def is_field(self):
        return _is_prime(self.m)

    def residue_fields(self):
        """Pairs (field, project) covering the maximal ideals; CRT-combinable."""
        return [(Zmod(p), (lambda x, p=p: x % p)) for p in _prime_factors(self.m)]

    def combine_residues(self, values):
        """An element congruent to values[t] modulo the t-th residue prime."""
        primes = _prime_factors(self.m)
        if not primes:
            return 0
        x, mod = 0, 1
        for p, v in zip(primes, values):
            # CRT step: x' == x (mod mod), x' == v (mod p)
            t = ((v - x) * pow(mod, -1, p)) % p
            x, mod = x + mod * t, mod * p
        return x % self.m

    def to_json(self):
        return {"kind": "Zmod", "m": self.m}

    def element_to_json(self, a):
        return a

    def element_from_json(self, obj):
        return self.element(obj)

    def __eq__(self, other):
        return isinstance(other, Zmod) and other.m == self.m

    def __hash__(self):
        return hash(("Zmod", self.m))

    def __repr__(self):
        return "Zmod(%d)" % self.m


def _poly_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mod(cs, f, p):
    """Remainder of cs modulo the monic polynomial f, coefficients mod p."""
    cs = [c % p for c in cs]
    d = len(f) - 1
    for k in range(len(cs) - 1, d - 1, -1):
        c = cs[k]
        if c:
            for t in range(d + 1):
                cs[k - d + t] = (cs[k - d + t] - c * f[t]) % p
    del cs[d:]
    while len(cs) < d:
        cs.append(0)
    return cs


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


class GF:
    """The finite field F_{p^d} as F_p[t] modulo a monic irreducible f.

    Elements are coefficient tuples of length d, lowest degree first.
    """

    kind = "GF"

    def __init__(self, p, f):
        if not _is_prime(p):
            raise ValueError("GF characteristic must be prime")
        f = [c % p for c in f]
        if len(f) < 2 or f[-1] != 1:
            raise ValueError("GF modulus must be monic of degree >= 1")
        self.p = p
        self.f = tuple(f)
        self.deg = len(f) - 1
        if not self._irreducible():
            raise ValueError("GF modulus must be irreducible")
        self.size = p ** self.deg
        self.zero = (0,) * self.deg
        self.one = (1,) + (0,) * (self.deg - 1)

    def _irreducible(self):
        d = len(self.f) - 1
        if d == 1:
            return True
        for k in range(1, d // 2 + 1):
            for tail in itertools.product(range(self.p), repeat=k):
                g = list(tail) + [1]
                _, r = _poly_divmod(list(self.f), g, self.p)
                if not r:
                    return False
        return True

    def element(self, v):
        if isinstance(v, int):
            return (v % self.p,) + (0,) * (self.deg - 1)
        cs = _poly_mod(list(v), list(self.f), self.p)
        return tuple(cs)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p = self.p
        conv = [0] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return tuple(_poly_mod(conv, list(self.f), p))

    def elements(self):
        return itertools.product(range(self.p), repeat=self.deg)

    def units(self):
        return [a for a in self.elements() if a != self.zero]

    def is_unit(self, a):
        return a != self.zero

    def inv(self, a):
        if a == self.zero:
            raise NotInvertible("zero is not invertible in GF(%d^%d)" % (self.p, self.deg))
        # extended Euclid in F_p[t]: u*a + v*f = gcd = const
        p = self.p
        r0, r1 = list(self.f), _poly_trim(list(a))
        s0, s1 = [0], [1]
        while True:
            q, r = _poly_divmod(r0, r1, p)
            if not r:
                break
            s = [c % p for c in self._poly_sub(s0, self._poly_mul(q, s1))]
            r0, s0, r1, s1 = r1, s1, r, s
        c = pow(r1[-1] if len(r1) > 1 else r1[0], -1, p)
        out = [(c * x) % p for x in s1]
        return self.element(out)

    def _poly_mul(self, a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def _poly_sub(self, a, b):
        n = max(len(a), len(b))
        a = a + [0] * (n - len(a))
        b = b + [0] * (n - len(b))
        return [x - y for x, y in zip(a, b)]

    @property
    def scalar_ring(self):
        return self

    def scalar_mul(self, s, a):
        return self.mul(s, a)

    def is_field(self):
        return True

    def residue_fields(self):
        return [(self, lambda x: x)]

    def combine_residues(self, values):
        return values[0]

    def to_json(self):
        return {"kind": "GF", "p": self.p, "f": list(self.f)}

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, obj):
        return self.element(obj)

    def __eq__(self, other):
        return isinstance(other, GF) and (other.p, other.f) == (self.p, self.f)

    def __hash__(self):
        return hash(("GF", self.p, self.f))

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.deg)


def _det_rows(base, rows):
    """Determinant of a square list-of-rows over a commutative base ring."""
    n = len(rows)
    if n == 0:
        return base.one
    memo = {}

    def rec(row, cols):
        if not cols:
            return base.one
        got = memo.get(cols)
        if got is not None:
            return got
        acc = base.zero
        negate = False
        for t, c in enumerate(cols):
            entry = rows[row][c]
            if entry != base.zero:
                term = base.mul(entry, rec(row + 1, cols[:t] + cols[t + 1:]))
                acc = base.add(acc, base.neg(term) if negate else term)
            negate = not negate
        memo[cols] = acc
        return acc

    return rec(0, tuple(range(n)))


class MatrixAlgebra:
    """Square n-by-n matrices over a base ring; elements are tuples of row tuples."""

    kind = "Mat"

    def __init__(self, base, n):
        if n < 1:
            raise ValueError("matrix size must be positive")
        self.base = base
        self.n = n
        self.zero = tuple(tuple(base.zero for _ in range(n)) for _ in range(n))
        self.one = tuple(
            tuple(base.one if i == j else base.zero for j in range(n)) for i in range(n)
        )
        self.size = base.size ** (n * n)
        self._mod = base.m if isinstance(base, Zmod) else None

    def element(self, rows):
        base = self.base
        rows = tuple(tuple(base.element(x) for x in row) for row in rows)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError("expected a %d x %d matrix" % (self.n, self.n))
        return rows

    def unit_matrix(self, r, c, value=None):
        """The matrix with `value` (default 1) at position (r, c), zero elsewhere."""
        base = self.base
        v = base.one if value is None else value
        return tuple(
            tuple(v if (i, j) == (r, c) else base.zero for j in range(self.n))
            for i in range(self.n)
        )

    def add(self, a, b):
        m = self._mod
        if m is not None:
            return tuple(
                tuple((x + y) % m for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
            )
        base = self.base
        return tuple(
            tuple(base.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )

    def sub(self, a, b):
        m = self._mod
        if m is not None:
            return tuple(
                tuple((x - y) % m for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
            )
        base = self.base
        return tuple(
            tuple(base.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )

    def neg(self, a):
        m = self._mod
        if m is not None:
            return tuple(tuple(-x % m for x in row) for row in a)
        base = self.base
        return tuple(tuple(base.neg(x) for x in row) for row in a)

    def mul(self, a, b):
        cols = tuple(zip(*b))
        m = self._mod
        if m is not None:
            return tuple(
                tuple(sum(map(operator.mul, row, col)) % m for col in cols) for row in a
            )
        base = self.base
        out = []
        for row in a:
            orow = []
            for col in cols:
                acc = base.zero
                for x, y in zip(row, col):
                    if x != base.zero and y != base.zero:
                        acc = base.add(acc, base.mul(x, y))
                orow.append(acc)
            out.append(tuple(orow))
        return tuple(out)

    def add_column_multiples(self, cols, ops):
        """Elementary column operations on a list of column lists, in place.

        For each (k, c, v): column c += column k * v.  No k may also be a c,
        so every operation reads columns the others leave unchanged.
        """
        m = self._mod
        if m is not None:
            for k, c, v in ops:
                cols[c] = [(y + x * v) % m for x, y in zip(cols[k], cols[c])]
            return
        base = self.base
        zero = base.zero
        for k, c, v in ops:
            cols[c] = [
                y if x == zero else base.add(y, base.mul(x, v))
                for x, y in zip(cols[k], cols[c])
            ]

    def add_row_multiples(self, rows, ops):
        """Elementary row operations on a list of row lists, in place.

        For each (r, c, v): row r += v * row c.  No r may also be a c.
        """
        m = self._mod
        if m is not None:
            for r, c, v in ops:
                rows[r] = [(x + v * y) % m for x, y in zip(rows[r], rows[c])]
            return
        base = self.base
        zero = base.zero
        for r, c, v in ops:
            rows[r] = [
                x if y == zero else base.add(x, base.mul(v, y))
                for x, y in zip(rows[r], rows[c])
            ]

    def elements(self):
        base_all = list(self.base.elements())
        for flat in itertools.product(base_all, repeat=self.n * self.n):
            yield tuple(
                flat[r * self.n:(r + 1) * self.n] for r in range(self.n)
            )

    @property
    def scalar_ring(self):
        return self.base.scalar_ring

    def scalar_mul(self, s, a):
        m = self._mod
        if m is not None:
            return tuple(tuple((s * x) % m for x in row) for row in a)
        base = self.base
        return tuple(tuple(base.scalar_mul(s, x) for x in row) for row in a)

    def _flatten(self, a):
        """(flat commutative-base algebra, flattened element of it)."""
        if not isinstance(self.base, MatrixAlgebra):
            return self, a
        bn = self.base.n
        big = self.n * bn
        rows = tuple(
            tuple(a[r // bn][c // bn][r % bn][c % bn] for c in range(big))
            for r in range(big)
        )
        flat_alg = MatrixAlgebra(self.base.base, big)
        return flat_alg._flatten(rows)

    def det(self, a):
        alg, flat = self._flatten(a)
        return _det_rows(alg.base, [list(r) for r in flat])

    def is_unit(self, a):
        alg, flat = self._flatten(a)
        return alg.base.is_unit(alg.det(flat))

    def inv(self, a):
        if isinstance(self.base, MatrixAlgebra):
            alg, flat = self._flatten(a)
            fi = alg.inv(flat)
            return self._unflatten(fi)
        base = self.base
        n = self.n
        d = self.det(a)
        if not base.is_unit(d):
            raise NotInvertible("matrix determinant is not a unit")
        di = base.inv(d)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = [
                    [a[r][c] for c in range(n) if c != i]
                    for r in range(n) if r != j
                ]
                md = _det_rows(base, minor)
                if (i + j) % 2:
                    md = base.neg(md)
                row.append(base.mul(di, md))
            rows.append(tuple(row))
        return tuple(rows)

    def _unflatten(self, flat):
        bn = self.base.n
        return tuple(
            tuple(
                self.base.element(
                    [
                        [flat[i * bn + r][j * bn + c] for c in range(bn)]
                        for r in range(bn)
                    ]
                )
                for j in range(self.n)
            )
            for i in range(self.n)
        )

    def to_json(self):
        return {"base": self.base.to_json(), "kind": "Mat", "size": self.n}

    def element_to_json(self, a):
        base = self.base
        return [[base.element_to_json(x) for x in row] for row in a]

    def element_from_json(self, obj):
        base = self.base
        return self.element([[base.element_from_json(x) for x in row] for row in obj])

    def __eq__(self, other):
        return (
            isinstance(other, MatrixAlgebra)
            and other.n == self.n
            and other.base == self.base
        )

    def __hash__(self):
        return hash(("Mat", self.n, self.base))

    def __repr__(self):
        return "MatrixAlgebra(%r, %d)" % (self.base, self.n)


def ring_from_json(desc):
    """Build a ring from its JSON descriptor."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("ring descriptor must be an object with a 'kind' field")
    kind = desc["kind"]
    if kind == "Zmod":
        return Zmod(int(desc["m"]))
    if kind == "GF":
        return GF(int(desc["p"]), list(desc["f"]))
    if kind == "Mat":
        return MatrixAlgebra(ring_from_json(desc["base"]), int(desc["size"]))
    raise ValueError("unknown ring kind %r" % (kind,))


class Localization:
    """Result of inverting s in a finite commutative ring K.

    ring:  the quotient K' = K/I where I is the stabilized s-power annihilator
    psi:   the projection K -> K'
    lift:  a section K' -> K with psi(lift(x)) == x
    annihilator: I as a tuple of elements of K
    warning: set when the quotient collapses to the zero ring
    """

    def __init__(self, ring, psi, lift, annihilator, warning=None):
        self.ring = ring
        self.psi = psi
        self.lift = lift
        self.annihilator = annihilator
        self.warning = warning


def localize_finite(K, s):
    """Invert s in finite commutative K by killing its s-power torsion.

    I = { k : s^N k = 0 } for stabilized N; returns K/I with the projection.
    The projection sends s to a unit, and every map out of K inverting s
    factors through it.
    """
    if isinstance(K, Zmod):
        m = K.m
        # stabilize g_N = gcd(s^N, m) via g_{N+1} = gcd(g_N * s, m)
        g = math.gcd(s % m, m)
        while True:
            nxt = math.gcd(g * (s % m), m)
            if nxt == g:
                break
            g = nxt
        d = m // g
        K2 = Zmod(d)
        annihilator = tuple(k for k in range(m) if k % d == 0)
        warning = None
        if d == 1:
            warning = "scale is nilpotent: localization is the zero ring"
        return Localization(K2, lambda x: x % d, lambda x: x, annihilator, warning)
    if isinstance(K, GF):
        if s == K.zero:
            K2 = Zmod(1)
            return Localization(
                K2,
                lambda x: 0,
                lambda x: K.zero,
                tuple(K.elements()),
                "scale is zero: localization is the zero ring",
            )
        return Localization(K, lambda x: x, lambda x: x, (K.zero,), None)
    raise SforgeError("localization implemented for Zmod and GF scalars only")


def quasi_invert(R, a, s):
    """The two-sided quasi-inverse of a at central scale s.

    Solves s*a*b + a + b = 0 = s*b*a + b + a.  Exists iff 1 + s*a is a unit;
    then b = -(1 + s*a)^{-1} * a.
    """
    u = R.add(R.one, R.scalar_mul(s, a))
    if not R.is_unit(u):
        raise NotQuasiInvertible("1 + s*a is not a unit")
    b = R.neg(R.mul(R.inv(u), a))
    return b


def is_quasi_invertible(R, a, s):
    return R.is_unit(R.add(R.one, R.scalar_mul(s, a)))


def random_element(ring, rng):
    """A uniformly random element of a finite ring."""
    if isinstance(ring, Zmod):
        return rng.randrange(ring.m)
    if isinstance(ring, GF):
        return tuple(rng.randrange(ring.p) for _ in range(ring.deg))
    if isinstance(ring, MatrixAlgebra):
        return tuple(
            tuple(random_element(ring.base, rng) for _ in range(ring.n))
            for _ in range(ring.n)
        )
    raise ValueError("cannot sample from %r" % (ring,))
