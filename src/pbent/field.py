"""Finite fields F_{p^m} of odd characteristic on a polynomial basis.

A FieldCtx freezes one concrete field: the modulus, a primitive element, and
the lookup tables that make bulk evaluation cheap (discrete exp/log, traces,
the trace bilinear form).  Elements travel as integer indices; index =
sum(coeffs[i] * p^i) with the constant digit least significant, so index
order is also the truth-table point order used everywhere else in the
package.  Multiplication by an element a is the matrix sum_i a_i M^i, with M
the modulus's companion matrix (multiplication by the root w on digit
columns), and Tr(w^k) is the matrix trace of M^k.  M also decides whether the
modulus is irreducible, by Rabin's test on its Frobenius powers M^(p^k).
Every F_p-linear map on elements -- multiplication by a fixed element, the
trace, a Gram matrix -- runs in index space: `LinearMaps` tabulates the
images of each half of the digits and adds two halves' images digit-wise,
with no p^m x m digit table.  Every Tr(c * x^e) table is one gather into
the table of Tr(g^k), at k = log c + e * log x, and sums of elements are
gathers through Zech logarithms, `zech`: log(x + y) = log x + zech[log y - log x].
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

SIZE_LIMIT = 1 << 20

# Moduli shipped with the package, keyed by (p, m); digit vectors are lowest
# degree first and include the leading 1.  Only fields that the bundled
# worked examples name are listed, everything else must be supplied
# explicitly so the library never picks a field representation silently.
BUILTIN_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (3, 3): (2, 0, 1, 1),     # x^3 + x^2 + 2
    (3, 4): (2, 0, 0, 1, 1),  # x^4 + x^3 + 2
    (5, 3): (1, 1, 0, 1),     # x^3 + x + 1
}


class FieldError(ValueError):
    """Raised for invalid field parameters or undefined element operations."""


def exceeds_size_limit(p: int, n: int) -> bool:
    """Whether p^n > SIZE_LIMIT for p >= 2; a p above the limit exceeds it
    whatever n is.

    The cheap tests come first, so a huge p or n is refused before any
    power or primality test could run for minutes.
    """
    return p > SIZE_LIMIT or n >= SIZE_LIMIT.bit_length() or (n > 0 and p**n > SIZE_LIMIT)


def digit_table(p: int, n: int) -> np.ndarray:
    """Base-p digits of 0..p^n - 1, lowest first: column j counts 0..p-1 in runs of p^j."""
    digits = np.empty((p**n, n), dtype=np.int64)
    for j in range(n):
        digits[:, j].reshape(-1, p, p**j)[...] = np.arange(p)[:, None]
    return digits


def outer_sum(parts) -> np.ndarray:
    """Mixed-radix outer sum: sum_j parts[j][d_j] at the index whose digit j
    is d_j in radix len(parts[j]), digit 0 lowest."""
    acc = np.zeros(1, dtype=np.int64)
    for part in parts:
        acc = np.add.outer(part, acc).reshape(-1)
    return acc


class LinearMaps:
    """F_p-linear maps x -> index(C * digits(x)) on m-digit indices, for m x m matrices C.

    The digits split into a low half of ceil(m/2) digits and a high half.
    Each half's image is tabulated over that half's p^(m/2) digit vectors,
    written in radix 2p - 1, where the sum of two digit vectors carries
    nothing.  So the image of x is one integer sum of two gathers, and a
    table over one half of the radix-(2p - 1) digits reduces the sum back
    to a base-p index, half by half.  No table has more than (2p)^ceil(m/2)
    entries.  On one digit (m = 1) there are no halves to split: the map is
    x -> c * x mod p, computed without a table.
    """

    def __init__(self, p: int, m: int) -> None:
        self.p = p
        self.m = m
        if m == 1:
            return
        lo = (m + 1) // 2
        radix = 2 * p - 1
        if radix**m > np.iinfo(np.int64).max:
            raise FieldError(f"radix-{radix} images of {m} digits overflow int64")
        self._lo = lo
        self._split = p**lo
        self._lo_digits = digit_table(p, lo)
        self._hi_digits = digit_table(p, m - lo)
        self._radix_pw = radix ** np.arange(m, dtype=np.int64)
        self._spread = radix**lo
        self._reduce = outer_sum([np.arange(radix, dtype=np.int64) % p * p**i for i in range(lo)])
        self._reduce_hi = self._reduce * self._split

    def _halves(self, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Radix-(2p - 1) images of every low-half and every high-half digit vector."""
        lo, hi = C[:, : self._lo], C[:, self._lo :]
        return (
            self._lo_digits @ lo.T % self.p @ self._radix_pw,
            self._hi_digits @ hi.T % self.p @ self._radix_pw,
        )

    def _reduced(self, z: np.ndarray) -> np.ndarray:
        hi = z // self._spread  # np.divmod took 10x as long as // on 5^8 indices
        out = self._reduce[z - hi * self._spread]
        out += self._reduce_hi[hi]
        return out

    def __call__(self, C: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Images of the indices x."""
        if self.m == 1:
            return x * int(C[0, 0]) % self.p
        lo_img, hi_img = self._halves(C)
        hi = x // self._split
        z = lo_img[x - hi * self._split]
        z += hi_img[hi]
        return self._reduced(z)

    def table(self, C: np.ndarray) -> np.ndarray:
        """Images of every index 0..p^m - 1."""
        if self.m == 1:
            return self(C, np.arange(self.p, dtype=np.int64))
        lo_img, hi_img = self._halves(C)
        return self._reduced(np.add.outer(hi_img, lo_img).reshape(-1))


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a list of integer rows, by Gauss-Jordan elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] % p:
                f = mat[r][c]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _companion(mod, p: int) -> np.ndarray:
    """Companion matrix of a monic modulus: multiplication by its root w on digit columns."""
    m = len(mod) - 1
    comp = np.zeros((m, m), dtype=np.int64)
    comp[1:, :-1] = np.eye(m - 1, dtype=np.int64)
    comp[:, -1] = [(-c) % p for c in mod[:m]]
    return comp


def _mat_pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    result = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            result = result @ a % p
        a = a @ a % p
        e >>= 1
    return result


def poly_is_irreducible(modulus, p: int) -> bool:
    """Rabin's test on the companion matrix M of the modulus, of degree m.

    The modulus is irreducible over F_p exactly when M^(p^m) = M and, for
    every prime r dividing m, M^(p^(m/r)) - M has full rank: M^k - M is
    singular exactly when x^k - x shares a factor with the modulus.
    """
    mod = [c % p for c in modulus]
    m = len(mod) - 1
    if m < 1 or mod[-1] != 1:
        raise FieldError("modulus must be monic of degree >= 1")
    comp = _companion(mod, p)
    if not np.array_equal(_mat_pow(comp, p**m, p), comp):
        return False
    return all(
        _rank_mod_p(((_mat_pow(comp, p ** (m // r), p) - comp) % p).tolist(), p) == m
        for r in prime_factors(m)
    )


class FieldCtx:
    """One concrete field F_{p^m}: modulus, primitive element, lookup tables."""

    def __init__(self, p: int, m: int, modulus, primitive: int | None = None) -> None:
        if exceeds_size_limit(p, m):
            raise FieldError(f"field size {p}^{m} exceeds the limit 2^20")
        if not is_odd_prime(p):
            raise FieldError(f"characteristic must be an odd prime, got {p}")
        if m < 1:
            raise FieldError(f"extension degree must be positive, got {m}")
        q = p**m
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != m + 1:
            raise FieldError(
                f"modulus needs {m + 1} digits (degree {m}, lowest first), got {len(mod)}"
            )
        if mod[-1] != 1:
            raise FieldError("modulus must be monic")
        if not poly_is_irreducible(mod, p):
            raise FieldError(f"modulus {list(mod)} is reducible over F_{p}")

        self.p = p
        self.m = m
        self.q = q
        self.modulus = mod
        self._pw = tuple(p**i for i in range(m))

        comp = _companion(mod, p)
        powers = [np.eye(m, dtype=np.int64)]
        for _ in range(2 * m - 2):
            powers.append(powers[-1] @ comp % p)
        self._basis_mats = np.stack(powers[:m])  # M^0 .. M^(m-1)
        traces = np.array([np.trace(a) for a in powers]) % p  # Tr(w^k), k <= 2m-2

        if primitive is None:
            primitive = self._find_primitive()
        else:
            primitive = int(primitive)
            if not 0 < primitive < q:
                raise FieldError(f"primitive index {primitive} is outside 1..{q - 1}")
            if not self._has_full_order(primitive):
                raise FieldError(f"element with index {primitive} is not primitive")
        self.primitive_index = primitive

        self._build_exp_log()
        # Tr is F_p-linear, so Tr(a) = sum_i a_i Tr(w^i)
        self.trace_table = outer_sum([np.arange(p, dtype=np.int64) * t for t in traces[:m]]) % p
        # Gram matrix of the trace form Tr(w^i w^j), used by the fast transform
        self.gram = traces[np.add.outer(np.arange(m), np.arange(m))]

    # ---- construction helpers -------------------------------------------

    def compose(self, digit_vec) -> int:
        return int(sum(int(d) * w for d, w in zip(digit_vec, self._pw)))

    def digits_of(self, idx: int) -> list[int]:
        """Coefficient vector of one element, constant digit first."""
        return [int(idx) // w % self.p for w in self._pw]

    def _mult_matrix(self, idx: int) -> np.ndarray:
        # matrix of multiplication by element idx on digit column vectors
        return np.tensordot(self.digits_of(idx), self._basis_mats, axes=1) % self.p

    def _has_full_order(self, idx: int) -> bool:
        a = self._mult_matrix(idx)
        one = np.eye(self.m, dtype=np.int64)
        return not any(
            np.array_equal(_mat_pow(a, (self.q - 1) // ell, self.p), one)
            for ell in prime_factors(self.q - 1)
        )

    def _find_primitive(self) -> int:
        # for m >= 2, indices below p are F_p, whose orders divide p - 1 < q - 1
        for idx in range(self.p if self.m > 1 else 2, self.q):
            if self._has_full_order(idx):
                return idx
        raise FieldError("no primitive element found (internal error)")

    def _build_exp_log(self) -> None:
        p, q = self.p, self.q
        maps = LinearMaps(p, self.m)
        self.exp = np.empty(q - 1, dtype=np.int64)
        self.exp[0] = 1
        g = self._mult_matrix(self.primitive_index)
        filled = 1
        # double the known prefix of powers each round: g^(filled+t) is the
        # image of g^t under multiplication by g^filled, a linear map applied
        # in index space; g's matrix is squared alongside so that it stays
        # that of g^filled
        while filled < q - 1:
            take = min(filled, q - 1 - filled)
            self.exp[filled : filled + take] = maps(g, self.exp[:take])
            filled += take
            g = g @ g % p
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[self.exp] = np.arange(q - 1, dtype=np.int64)
        if (self.log[1:] < 0).any():
            raise FieldError("primitive element does not generate the field (internal error)")

    # ---- index-space operations ------------------------------------------

    def add_idx(self, a: int, b: int) -> int:
        return self.compose((x + y) % self.p for x, y in zip(self.digits_of(a), self.digits_of(b)))

    def neg_idx(self, a: int) -> int:
        return self.compose(-x % self.p for x in self.digits_of(a))

    def sub_idx(self, a: int, b: int) -> int:
        return self.compose((x - y) % self.p for x, y in zip(self.digits_of(a), self.digits_of(b)))

    def mul_idx(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(self.log[a] + self.log[b]) % (self.q - 1)])

    def inv_idx(self, a: int) -> int:
        if a == 0:
            raise FieldError("cannot invert 0")
        return int(self.exp[(-self.log[a]) % (self.q - 1)])

    def pow_idx(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise FieldError("cannot raise 0 to a negative power")
            return 0
        return int(self.exp[(int(self.log[a]) * e) % (self.q - 1)])

    def trace_idx(self, a: int) -> int:
        return int(self.trace_table[a])

    def eta_idx(self, a: int) -> int:
        if a == 0:
            raise FieldError("the quadratic character is undefined at 0")
        # a primitive element is a non-square, so eta(g^k) = (-1)^k
        return 1 - 2 * (int(self.log[a]) & 1)

    @cached_property
    def trace_exp(self) -> np.ndarray:
        """Tr(g^k) by k for 0 <= k < q - 1, read-only and built on first use."""
        table = self.trace_table[self.exp]
        table.flags.writeable = False
        return table

    @cached_property
    def zech(self) -> np.ndarray:
        """Zech logarithms log(1 + g^k) by k, -1 at k = (q - 1)/2 where g^k = -1;
        read-only and built on first use.  Adding 1 changes the constant digit only."""
        x = self.exp
        table = self.log[x - x % self.p + (x + 1) % self.p]
        table.flags.writeable = False
        return table

    # ---- vectorized index-space operations ---------------------------------

    def mul_indices(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        out[nz] = self.exp[(self.log[a[nz]] + self.log[b[nz]]) % (self.q - 1)]
        return out

    def pow_indices(self, a: np.ndarray, e: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if e < 0:
            raise FieldError("vectorized powers take nonnegative exponents")
        if e == 0:
            return np.ones(a.shape, dtype=np.int64)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = a != 0
        # a^e = g^(log(a) * e); e is reduced first so the product fits int64
        out[nz] = self.exp[self.log[a[nz]] * (e % (self.q - 1)) % (self.q - 1)]
        return out

    def trace_term(self, c: int, e: int) -> np.ndarray:
        """Tr(c * x^e) at every index x, as one gather from `trace_exp`:
        Tr(g^(log c + e t)) at x = g^t != 0, and Tr(0) = 0 at x = 0 for e > 0."""
        if e < 0:
            raise FieldError("trace terms take nonnegative exponents")
        if c == 0 or e == 0:  # Tr(0) = 0 everywhere; x^0 = 1 at x = 0 too
            return np.full(self.q, self.trace_table[c], dtype=np.int64)
        # log[0] = -1 still gives x = 0 an index in range; its entry is reset below
        k = self.log * (e % (self.q - 1))
        k += self.log[c]
        k -= k // (self.q - 1) * (self.q - 1)  # k %= q - 1 took 1.3x as long
        table = self.trace_exp[k]
        table[0] = 0
        return table

    # ---- elements -----------------------------------------------------------

    def element(self, idx: int) -> "FieldElement":
        idx = int(idx)
        if not 0 <= idx < self.q:
            raise FieldError(f"element index {idx} out of range for a field of size {self.q}")
        return FieldElement(self, idx)

    def from_coeffs(self, coeffs) -> "FieldElement":
        cs = [int(c) % self.p for c in coeffs]
        if len(cs) > self.m:
            raise FieldError(f"too many digits for degree {self.m}")
        cs += [0] * (self.m - len(cs))
        return FieldElement(self, self.compose(cs))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def w(self) -> "FieldElement":
        """The residue of x, i.e. the root of the modulus inside the field."""
        if self.m == 1:
            return FieldElement(self, (-self.modulus[0]) % self.p)
        return FieldElement(self, self.p)

    @property
    def g(self) -> "FieldElement":
        """The context's primitive element."""
        return FieldElement(self, self.primitive_index)

    def primitive_indices(self) -> list[int]:
        """Indices of every generator of the multiplicative group."""
        n = self.q - 1
        return self.exp[np.gcd(np.arange(n), n) == 1].tolist()

    # ---- identity ------------------------------------------------------------

    def _key(self):
        return (self.p, self.m, self.modulus, self.primitive_index)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, m={self.m}, modulus={list(self.modulus)})"


class FieldElement:
    """A field element as (context, index), with operator sugar."""

    __slots__ = ("ctx", "index")

    def __init__(self, ctx: FieldCtx, index: int) -> None:
        self.ctx = ctx
        self.index = int(index)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.ctx.digits_of(self.index))

    def _check(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.ctx.from_coeffs([other % self.ctx.p])
        if not isinstance(other, FieldElement) or other.ctx != self.ctx:
            raise FieldError("operands live in different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.ctx, self.ctx.add_idx(self.index, other.index))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.ctx, self.ctx.sub_idx(self.index, other.index))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg_idx(self.index))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.ctx, self.ctx.mul_idx(self.index, other.index))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow_idx(self.index, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv_idx(self.index))

    def trace(self) -> int:
        return self.ctx.trace_idx(self.index)

    def eta(self) -> int:
        return self.ctx.eta_idx(self.index)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ctx.from_coeffs([other % self.ctx.p])
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx == other.ctx and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.ctx, self.index))

    def poly_str(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                unit = "w" if i == 1 else f"w^{i}"
                parts.append(unit if c == 1 else f"{c}{unit}")
        return " + ".join(reversed(parts)) if parts else "0"

    def __str__(self) -> str:
        return self.poly_str()

    def __repr__(self) -> str:
        return f"FieldElement({self.poly_str()}, index={self.index})"


def make_field(p: int, m: int, modulus=None) -> FieldCtx:
    """Build a field context, falling back to the built-in modulus table.

    Only the bundled fields have table entries; for anything else (including
    F_{3^6}) the modulus must be given explicitly as digits, lowest degree
    first, with the leading 1 included.
    """
    if modulus is None:
        if m == 1:
            modulus = (0, 1)
        elif (p, m) in BUILTIN_MODULI:
            modulus = BUILTIN_MODULI[(p, m)]
        else:
            raise FieldError(
                f"no built-in modulus for p={p}, m={m}; pass one explicitly"
            )
    return FieldCtx(p, m, modulus)

