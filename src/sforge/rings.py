"""Exact arithmetic for finite base rings and matrix algebras.

Rings are objects that own the arithmetic; elements are plain hashable data
(ints for Zmod, coefficient tuples for GF, nested tuples of rows for
matrices).  No floats are used anywhere: every operation is exact.

The three ring kinds:

    Zmod(m)            integers modulo m
    GF(p, f)           the field F_{p^d}, f a monic irreducible of degree d
    MatrixAlgebra(A,n) n-by-n matrices over a base ring A

GF arithmetic is table-driven: each field builds log, antilog, Zech and
negation tables once, at construction, in O(q) time and memory for
q = p^d, after which every field operation is a lookup.

Matrix algebras are flat: their base is Zmod or GF, and M(n, M(k, A)) is
written as M(nk, A) with a block family.  Determinants and inverses cost
O(n^3) base operations, by one exact elimination: a unit pivot where the
column has one, else, over Z/m, a unimodular 2x2 row step built from the
extended gcd of two entries (one loop covers prime powers and mixed
moduli, with no CRT split).  The determinant is the signed product of
the diagonal it leaves, and the inverse one back-substitution on [a | 1].

Words are evaluated on column buffers (MatrixAlgebra.columns, matrix and
fold_columns).  Over Z/m a column is one int, its n entries in limbs of
w bits, w derived from m when the algebra is built; a column update is
one big-int multiply-add, and reduction is deferred to one limb-wise
Barrett step (Barrett, CRYPTO 1986; Granlund and Montgomery, PLDI 1994)
per replaced column, under a proven bound on entry growth.  Over GF a
column is a list.
"""

from __future__ import annotations

import itertools
import math
import operator


class SforgeError(Exception):
    """Base class for all errors raised by this package."""


class NotInvertible(SforgeError):
    """An element required to be a unit is not one."""


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

    def choice(self, rng):
        """rng.choice(list(self.elements())), without the list."""
        return rng.randrange(self.m)

    def units(self):
        return [a for a in range(self.m) if math.gcd(a, self.m) == 1]

    def is_unit(self, a):
        return math.gcd(a, self.m) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible("%d is not a unit modulo %d" % (a, self.m))
        return pow(a, -1, self.m)

    def scalar_mul(self, s, a):
        return (s * a) % self.m

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
        return self.element(_json_int(obj, "a Z/%d element" % self.m))

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


def _poly_mulmod(a, b, f, p):
    """a * b modulo the monic f, coefficients mod p, for a reduced modulo f
    (d coefficients) and b nonempty: Horner's rule in b, O(d) per
    coefficient of b."""
    out = list(a) if b[-1] == 1 else [b[-1] * x % p for x in a]
    for y in reversed(b[:-1]):
        # out * t, reduced by t^d == -(f_0 + ... + f_{d-1} t^{d-1}); then + y * a
        top = out[-1]
        out = [0] + out[:-1]
        if top:
            out = [(x - top * c) % p for x, c in zip(out, f)]
        if y:
            out = [(x + y * z) % p for x, z in zip(out, a)]
    return out


def _poly_powmod(a, e, f, p):
    """a^e modulo the monic f, coefficients mod p, by repeated squaring."""
    a = _poly_mod(a, f, p)
    out = _poly_mod([1], f, p)
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, f, p)
        a = _poly_mulmod(a, a, f, p)
        e >>= 1
    return out


class GF:
    """The finite field F_{p^d} as F_p[t] modulo a monic irreducible f.

    Elements are coefficient tuples of length d, lowest degree first.
    Arithmetic is table-driven: construction fixes a primitive element g
    and tabulates its powers (antilogarithms), the logarithm of every
    nonzero element, Zech's logarithms Z(k) = log(1 + g^k), and negation.
    Then mul, inv, add, sub and neg are O(1) lookups, with
    g^i + g^j = g^(i + Z(j - i)).  The tables take O(q) time and memory
    for q = p^d, built once per field (Lidl & Niederreiter, Finite Fields,
    1997).
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
        self.size = p ** self.deg
        self.zero = (0,) * self.deg
        self.one = (1,) + (0,) * (self.deg - 1)
        self._build_tables()

    def _primitive(self):
        """A generator of the multiplicative group, as a trimmed coefficient list.

        Candidates are taken in order of degree, so multiplying by the one
        found costs O(d) per coefficient it has; g is primitive when
        g^((q-1)/r) != 1 for every prime r dividing q - 1.  The search
        also decides irreducibility: in a field every nonzero g has
        g^(q-1) = 1, and modulo a reducible f some nonzero g is not a
        unit, while no element has order q - 1, so the search reaches
        such a g before any primitive one and raises ValueError there.
        """
        p, d, f = self.p, self.deg, list(self.f)
        order = self.size - 1
        one = list(self.one)
        primes = _prime_factors(order)
        for k in range(1, self.size):
            g = _poly_trim([(k // p ** e) % p for e in range(d)])
            if _poly_powmod(g, order, f, p) != one:
                raise ValueError("GF modulus must be irreducible")
            if all(_poly_powmod(g, order // r, f, p) != one for r in primes):
                return g

    def _build_tables(self):
        p, f = self.p, list(self.f)
        order = self.size - 1
        g = self._primitive()
        exp = []
        cur = list(self.one)
        for _ in range(order):
            exp.append(tuple(cur))
            cur = _poly_mulmod(cur, g, f, p)
        log = {a: k for k, a in enumerate(exp)}
        log[self.zero] = None  # zero has no logarithm
        # -1 is g^((q-1)/2), the one element of order 2; in characteristic 2, 1
        half = order // 2 if p > 2 else 0
        self._neg = {a: exp[(k + half) % order] for k, a in enumerate(exp)}
        self._neg[self.zero] = self.zero
        self._zech = [log[((a[0] + 1) % p,) + a[1:]] for a in exp]
        self._log = log
        self._exp = exp + exp  # log a + log b < 2(q - 1) needs no reduction

    def element(self, v):
        if isinstance(v, int):
            return (v % self.p,) + (0,) * (self.deg - 1)
        cs = _poly_mod(list(v), list(self.f), self.p)
        return tuple(cs)

    def add(self, a, b):
        log = self._log
        la, lb = log[a], log[b]
        if la is None:
            return b
        if lb is None:
            return a
        z = self._zech[lb - la]  # a negative index reads Z modulo q - 1
        return self.zero if z is None else self._exp[la + z]

    def sub(self, a, b):
        # a + (-b) with add's body written out, not a call to add, so that
        # perfbench's count of GF.add calls stays a count of additions
        log = self._log
        nb = self._neg[b]
        la, lb = log[a], log[nb]
        if la is None:
            return nb
        if lb is None:
            return a
        z = self._zech[lb - la]
        return self.zero if z is None else self._exp[la + z]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        log = self._log
        la, lb = log[a], log[b]
        if la is None or lb is None:
            return self.zero
        return self._exp[la + lb]

    def elements(self):
        return itertools.product(range(self.p), repeat=self.deg)

    def choice(self, rng):
        """rng.choice(list(self.elements())), without the list: the k-th
        coefficient tuple in elements() order, for one draw k."""
        k = rng.randrange(self.size)
        return tuple([k // self.p ** e % self.p for e in range(self.deg - 1, -1, -1)])

    def units(self):
        return [a for a in self.elements() if a != self.zero]

    def is_unit(self, a):
        return a != self.zero

    def inv(self, a):
        la = self._log[a]
        if la is None:
            raise NotInvertible("zero is not invertible in GF(%d^%d)" % (self.p, self.deg))
        return self._exp[self.size - 1 - la]

    def scalar_mul(self, s, a):
        return self.mul(s, a)

    def residue_fields(self):
        return [(self, lambda x: x)]

    def combine_residues(self, values):
        return values[0]

    def to_json(self):
        return {"kind": "GF", "p": self.p, "f": list(self.f)}

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, obj):
        """An element from a JSON integer or a list of JSON integers
        (coefficients, lowest degree first)."""
        if is_json_int(obj) or (
            isinstance(obj, list) and all(is_json_int(c) for c in obj)
        ):
            return self.element(obj)
        raise ValueError(
            "a GF element must be an integer or a list of integers, got %r" % (obj,)
        )

    def __eq__(self, other):
        return isinstance(other, GF) and (other.p, other.f) == (self.p, self.f)

    def __hash__(self):
        return hash(("GF", self.p, self.f))

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.deg)


def _xgcd(a, b):
    """(g, s, t) with g == gcd(a, b) == s*a + t*b, for integers a, b >= 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _triangularise(base, rows, n, need_units):
    """Clear the first n columns of rows below the diagonal, in place.

    Column k takes a unit pivot when it has one from row k down: that row
    is swapped up and clears each row below it with one row update.  Over
    a field this is every nonzero column.  Otherwise, over Z/m, each entry
    b below the pivot a is cleared by the 2x2 step [[s, t], [-b/g, a/g]]
    on integer representatives, with g = gcd(a, b) = s*a + t*b; it has
    determinant 1 and leaves g on the diagonal, which covers Z/p^k and
    mixed moduli alike.  The determinant of the leading n x n block is
    therefore sign times the product of the diagonal; sign is returned.
    With need_units, raises NotInvertible as soon as a diagonal entry is
    not a unit.
    """
    is_unit = base.is_unit
    m = base.m if isinstance(base, Zmod) else None
    sign = 1
    for k in range(n):
        for r in range(k, n):
            if is_unit(rows[r][k]):
                if r != k:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                if k + 1 < n:
                    _clear_column(base, rows, k, range(k + 1, n), base.inv(rows[k][k]))
                break
        else:
            if m is not None:
                rk = rows[k]
                a = rk[k]
                for i in range(k + 1, n):
                    ri = rows[i]
                    b = ri[k]
                    if not b:
                        continue
                    g, s, t = _xgcd(a, b)
                    p, q = a // g, b // g
                    rk, rows[i] = (
                        [(s * x + t * y) % m for x, y in zip(rk, ri)],
                        [(p * y - q * x) % m for x, y in zip(rk, ri)],
                    )
                    a = rk[k]
                rows[k] = rk
            if need_units and not is_unit(rows[k][k]):
                raise NotInvertible("matrix determinant is not a unit")
    return sign


def _clear_column(base, rows, k, targets, pivot_inv):
    """Row i -= (row i [k] * pivot_inv) * row k for each target row i, in place.

    pivot_inv is the inverse of row k's entry in column k, and row k is
    zero before column k, so each target's entry in column k becomes zero.
    Over Z/m each updated row is rebuilt in one list comprehension;
    otherwise that entry is set to zero and only the nonzero entries of
    row k after it are read.
    """
    rk = rows[k]
    if isinstance(base, Zmod):
        m = base.m
        for i in targets:
            f = rows[i][k] * pivot_inv % m
            if f:
                rows[i] = [(y - f * x) % m for x, y in zip(rk, rows[i])]
        return
    zero, sub, mul = base.zero, base.sub, base.mul
    columns = range(k + 1, len(rk))
    for i in targets:
        ri = rows[i]
        if ri[k] != zero:
            f = mul(ri[k], pivot_inv)
            ri[k] = zero
            for c in columns:
                x = rk[c]
                if x != zero:
                    ri[c] = sub(ri[c], mul(f, x))


class MatrixAlgebra:
    """Square n-by-n matrices over a base ring; elements are tuples of row tuples."""

    kind = "Mat"

    def __init__(self, base, n):
        if n < 1:
            raise ValueError("matrix size must be positive")
        if isinstance(base, MatrixAlgebra):
            raise ValueError(
                "matrix rings are flat: write M(n, M(k, A)) as M(nk, A) with a "
                "block family"
            )
        self.base = base
        self.n = n
        self.zero = tuple(tuple(base.zero for _ in range(n)) for _ in range(n))
        self.one = tuple(
            tuple(base.one if i == j else base.zero for j in range(n)) for i in range(n)
        )
        self.size = base.size ** (n * n)
        self._mod = base.m if isinstance(base, Zmod) else None
        if self._mod is not None:
            self._pack_layout(self._mod, n)

    def _pack_layout(self, m, n):
        """The constants of the packed Z/m column buffer and its reduction.

        A column is one int whose w-bit limb r holds row r.  fold_columns
        keeps every entry below 2^A, A = max(31, bitlen(m) +
        bitlen(Lmax (m - 1))), and reduces a column X limb-wise by the
        Barrett step X - m * (((X * mu) >> s) & Q), with s = A + bitlen(m),
        mu = ceil(2^s / m), w = 2A + 2 and Q the low w - s bits of every
        limb.  For a limb d <= 2^A + 1: mu <= 2^(A + 1), so d * mu < 2^w
        stays in its limb and no product carries into the next; the shift
        brings floor(d * mu / 2^s) < 2^(w - s) to the bottom of the limb,
        the next limb's product lands above it, and the mask keeps exactly
        it.  It is floor(d / m): with mu m = 2^s + e, 0 <= e < m, the
        excess d e / (m 2^s) is below 1/m, since d e < 2^A m < 2^s (as
        m - 1 < 2^A).  So each limb becomes d mod m, and the subtraction
        never borrows.

        The growth bound.  A letter x_ij(a), i != j, writes only block-j
        columns, each from block-i columns it does not write, so a written
        entry is at most E + |block i| (m - 1) E, plus m - 1 in the
        homotope step, for E the largest entry before the letter.  With
        g = 1 + L (m - 1), L = len(a) >= |block i|, that is at most
        E g + m - 1 <= (E + 1) g - 1, as g >= m: E + 1 grows by at most g,
        and E + 1 <= m * prod g over the letters since the last reduction,
        at which every entry was canonical.  _letter_cost[L] is ceil(16
        log2 g) and _budget is 16 A - ceil(16 log2 m), in sixteenths of a
        bit, so letters whose costs sum to at most _budget keep every
        entry below 2^A.  Lmax = floor(n^2 / 4) is the most values a
        letter has, and ceil(16 log2 g) <= 16 bitlen(Lmax (m - 1)), so
        the largest letter fits in one budget; _free of the largest
        letters fit.  Over Z/1 a letter costs nothing.
        """
        lmax = n * n // 4
        A = max(31, m.bit_length() + (lmax * (m - 1)).bit_length())
        s = A + m.bit_length()
        w = 2 * A + 2
        shifts = tuple(range(0, w * n, w))
        self._shifts = shifts
        self._limb_mask = (1 << w) - 1
        self._packed = (-(-(1 << s) // m), s, sum((1 << (w - s)) - 1 << sh for sh in shifts), shifts)
        self._letter_cost = [((1 + L * (m - 1)) ** 16 - 1).bit_length() for L in range(lmax + 1)]
        self._budget = 16 * A - (m ** 16 - 1).bit_length()
        self._free = self._budget // max(self._letter_cost[lmax], 1)

    def columns(self, a):
        """The column buffer of the matrix a: a list of its n columns, each
        one int over Z/m (row r in limb r) and a list otherwise."""
        if self._mod is None:
            return [list(c) for c in zip(*a)]
        shifts = self._shifts
        return [sum(map(operator.lshift, c, shifts)) for c in zip(*a)]

    def matrix(self, cols):
        """The matrix, as a tuple of row tuples, of a buffer of canonical
        columns."""
        if self._mod is None:
            return tuple(zip(*cols))
        mask = self._limb_mask
        return tuple(tuple([X >> sh & mask for X in cols]) for sh in self._shifts)

    def pack_column(self, values):
        """The buffer column of one column's n entries, top to bottom
        (_times_corner writes columns one at a time)."""
        if self._mod is None:
            return list(values)
        return sum(map(operator.lshift, values, self._shifts))

    def unpack_column(self, col):
        """The n entries, top to bottom, of one canonical buffer column."""
        if self._mod is None:
            return col
        mask = self._limb_mask
        return [col >> sh & mask for sh in self._shifts]

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
        zero = base.zero
        add, mul = base.add, base.mul
        out = []
        for row in a:
            # each row's nonzero entries are found once, not once per column
            nonzero = [(k, x) for k, x in enumerate(row) if x != zero]
            orow = []
            for col in cols:
                acc = zero
                for k, x in nonzero:
                    y = col[k]
                    if y != zero:
                        acc = add(acc, mul(x, y))
                orow.append(acc)
            out.append(tuple(orow))
        return tuple(out)

    def fold_columns(self, cols, cells, letters, scale=None):
        """Right-multiply a column buffer by the st image of letters, in
        place, and return it.

        cols is a buffer of canonical columns (columns(), pack_column());
        over Z/m a column that is not an int raises TypeError before any
        update.  A letter (i, j, a) is x_ij(a), its block values a, ring
        elements and so canonical, on cells[i][j]
        (IdempotentFamily.cell_table), i != j.  Each nonzero
        value v at (k, c) does column c += column k * v, the product by
        1 + a; no k is also a c.  With a scale s a letter is the homotope
        step s*acc*a + acc + a: column c += column k * (s v), then v is
        added at (k, c).  The branch and the base ring's operations are
        found once per call.

        Over Z/m a column is one int, row r in limb r (_pack_layout), and
        each update one big-int multiply-add on every row at once; the
        homotope step adds v << w k.  Reduction is deferred: the word is
        folded in runs that keep every entry below 2^A (the whole word
        when it has at most _free letters, else _runs), and at the end of
        each run every column the run replaced, one that is not the
        object it started the run as, is reduced by one Barrett step.  So
        every column is canonical on exit, and buffers compare with ==.
        Elsewhere a column is a list, and each update stores a new one.

        No column is changed in place, so a shallow copy of a buffer can be
        folded while the buffer, and every copy sharing its columns, stays
        as it was: the exhaustive relation grid shares the columns of st(x)
        that way.  A column no letter touched keeps its object.
        """
        m = self._mod
        if m is not None:
            for X in cols:
                if type(X) is not int:
                    raise TypeError("a Z/%d buffer column is an int, got %r" % (m, type(X)))
            mu, s, Q, shifts = self._packed
            for run in (letters,) if len(letters) <= self._free else self._runs(letters):
                start = cols[:]
                if scale is None:
                    for i, j, a in run:
                        for (k, c), v in zip(cells[i][j], a):
                            if v:
                                cols[c] += cols[k] * v
                else:
                    for i, j, a in run:
                        for (k, c), v in zip(cells[i][j], a):
                            if v:
                                cols[c] += cols[k] * (scale * v % m) + (v << shifts[k])
                p = 0
                for X in cols:
                    if X is not start[p]:
                        cols[p] = X - m * ((X * mu >> s) & Q)
                    p += 1
            return cols
        base = self.base
        zero = base.zero
        add, mul, scalar_mul = base.add, base.mul, base.scalar_mul
        for i, j, a in letters:
            for (k, c), v in zip(cells[i][j], a):
                if v == zero:
                    continue
                sv = v if scale is None else scalar_mul(scale, v)
                col = [
                    y if x == zero else add(y, mul(x, sv))
                    for x, y in zip(cols[k], cols[c])
                ]
                if scale is not None:
                    col[k] = add(col[k], v)
                cols[c] = col
        return cols

    def _runs(self, letters):
        """The letters cut into runs whose _letter_cost sums to at most
        _budget each (_pack_layout), where every letter fits."""
        cost, full = self._letter_cost, self._budget
        runs = []
        first, budget = 0, full
        for t, (_, _, a) in enumerate(letters):
            budget -= cost[len(a)]
            if budget < 0:
                runs.append(letters[first:t])
                first, budget = t, full - cost[len(a)]
        runs.append(letters[first:])
        return runs

    def add_row_multiples(self, rows, cells, values):
        """Left-multiply by a letter's 1 + a, on a list of row lists, in place.

        For each cell (r, c) with a nonzero value v: row r += v * row c.
        No r may also be a c.
        """
        m = self._mod
        if m is not None:
            for (r, c), v in zip(cells, values):
                if v:
                    rows[r] = [(x + v * y) % m for x, y in zip(rows[r], rows[c])]
            return
        base = self.base
        zero = base.zero
        for (r, c), v in zip(cells, values):
            if v != zero:
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

    def scalar_mul(self, s, a):
        m = self._mod
        if m is not None:
            return tuple(tuple((s * x) % m for x in row) for row in a)
        base = self.base
        return tuple(tuple(base.scalar_mul(s, x) for x in row) for row in a)

    def det(self, a):
        """The determinant, by elimination: O(n^3); the signed product of
        the diagonal that _triangularise leaves."""
        base = self.base
        rows = [list(r) for r in a]
        sign = _triangularise(base, rows, self.n, need_units=False)
        d = base.one
        for k, row in enumerate(rows):
            d = base.mul(d, row[k])
        return d if sign > 0 else base.neg(d)

    def is_unit(self, a):
        return self.base.is_unit(self.det(a))

    def inv(self, a):
        """The inverse, by elimination on [a | 1]: O(n^3).

        _triangularise clears [a | 1] below the diagonal and raises
        NotInvertible at the first diagonal entry that is not a unit; one
        back-substitution clears it above, and dividing each row by its
        diagonal entry leaves the inverse on the right.
        """
        n = self.n
        base = self.base
        rows = [list(r) + list(e) for r, e in zip(a, self.one)]
        _triangularise(base, rows, n, need_units=True)
        mul = base.mul
        for k in reversed(range(n)):
            d_inv = base.inv(rows[k][k])
            if k:
                _clear_column(base, rows, k, range(k), d_inv)
            rows[k] = tuple([mul(d_inv, x) for x in rows[k][n:]])
        return tuple(rows)

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


def is_json_int(value):
    """Is value a JSON integer?  true, false and "4" are not, though
    Python's bool is a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(value, what):
    if not is_json_int(value):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


def ring_from_json(desc):
    """Build a ring from its JSON descriptor."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("ring descriptor must be an object with a 'kind' field")
    kind = desc["kind"]
    if kind == "Zmod":
        return Zmod(_json_int(desc["m"], "'m'"))
    if kind == "GF":
        f = desc["f"]
        if not isinstance(f, list):
            raise ValueError("'f' must be a list of integers, got %r" % (f,))
        f = [_json_int(c, "each entry of 'f'") for c in f]
        return GF(_json_int(desc["p"], "'p'"), f)
    if kind == "Mat":
        size = _json_int(desc["size"], "'size'")
        return MatrixAlgebra(ring_from_json(desc["base"]), size)
    raise ValueError("unknown ring kind %r" % (kind,))


class Localization:
    """Result of inverting s in a finite commutative ring K.

    ring:  the quotient K' = K/I where I is the stabilized s-power annihilator
    psi:   the projection K -> K'
    lift:  a section K' -> K with psi(lift(x)) == x
    warning: set when the quotient collapses to the zero ring
    """

    def __init__(self, ring, psi, lift, warning=None):
        self.ring = ring
        self.psi = psi
        self.lift = lift
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
        warning = None
        if d == 1:
            warning = "scale is nilpotent: localization is the zero ring"
        return Localization(Zmod(d), lambda x: x % d, lambda x: x, warning)
    if isinstance(K, GF):
        if s == K.zero:
            return Localization(
                Zmod(1),
                lambda x: 0,
                lambda x: K.zero,
                "scale is zero: localization is the zero ring",
            )
        return Localization(K, lambda x: x, lambda x: x)
    raise SforgeError("localization implemented for Zmod and GF scalars only")


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
