"""Seeded inputs for the benchmark, and the independent oracle for `dual`.

Nothing here imports pbent: the tables, coefficients and expected outputs
come from a small field implementation of its own, so a defect in the
package cannot make its own check pass.

Point indices follow the package's truth-table format: the point with base-p
digits d_0, d_1, ... (d_0 lowest) has index sum d_i p^i.  A field element's
digits are its coefficients on 1, w, w^2, ... with w the modulus root.
"""
from __future__ import annotations

import numpy as np

# F_{5^8} modulus for dual-field5, constant term first: 1 + w^5 + w^6 + w^8.
FIELD5_P = 5
FIELD5_MODULUS = (1, 0, 0, 0, 0, 1, 1, 0, 1)


# ---- polynomials over F_p, coefficient lists lowest degree first ------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    a = _trim([c % p for c in a])
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) >= len(f):
        c = a[-1] * inv_lead % p
        shift = len(a) - len(f)
        for i, fc in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fc) % p
        _trim(a)
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _poly_mod(prod, f, p)


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result, base = [1], _poly_mod(list(a), f, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(modulus, p: int) -> bool:
    """Rabin's test: x^(p^m) = x mod f, and gcd(x^(p^(m/r)) - x, f) = 1 for
    every prime r dividing m."""
    f = [int(c) % p for c in modulus]
    m = len(f) - 1
    x = [0, 1]
    if _poly_powmod(x, p**m, f, p) != _poly_mod(list(x), f, p):
        return False
    for r in _prime_factors(m):
        h = _poly_powmod(x, p ** (m // r), f, p)
        h = h + [0] * (2 - len(h))
        h[1] = (h[1] - 1) % p
        if len(_poly_gcd(h, f, p)) != 1:
            return False
    return True


class Field:
    """F_{p^m} on digit vectors; only what the generator and oracle need."""

    def __init__(self, p: int, modulus) -> None:
        self.p = p
        self.f = [int(c) % p for c in modulus]
        self.m = len(self.f) - 1
        self.q = p**self.m
        if self.f[-1] != 1 or not is_irreducible(self.f, p):
            raise ValueError(f"modulus {self.f} is not monic irreducible over F_{p}")

    def digits(self, index: int) -> list[int]:
        return [(index // self.p**i) % self.p for i in range(self.m)]

    def mul(self, a, b) -> list[int]:
        return _padded(_poly_mulmod(list(a), list(b), self.f, self.p), self.m)

    def pow(self, a, e: int) -> list[int]:
        return _padded(_poly_powmod(list(a), e, self.f, self.p), self.m)

    def inv(self, a) -> list[int]:
        return self.pow(a, self.q - 2)

    def trace(self, a) -> int:
        """Tr(a) as the trace of multiplication by a on the basis 1, w, ..."""
        return sum(self.mul(a, _unit(i, self.m))[i] for i in range(self.m)) % self.p

    def smallest_primitive(self) -> int:
        one = _unit(0, self.m)
        factors = _prime_factors(self.q - 1)
        for idx in range(2, self.q):
            a = self.digits(idx)
            if all(self.pow(a, (self.q - 1) // r) != one for r in factors):
                return idx
        raise ValueError("no primitive element")

    def poly_str(self, a) -> str:
        """a as an expression in w for the package's coefficient grammar."""
        terms = []
        for i in reversed(range(self.m)):
            c = int(a[i])
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                power = "w" if i == 1 else f"w^{i}"
                terms.append(power if c == 1 else f"{c}*{power}")
        return " + ".join(terms) if terms else "0"


def _unit(i: int, m: int) -> list[int]:
    return [1 if j == i else 0 for j in range(m)]


def _padded(a: list[int], m: int) -> list[int]:
    return list(a) + [0] * (m - len(a))


# ---- truth-table text --------------------------------------------------------


def render_tt(table: np.ndarray, p: int, n: int, headers: tuple[str, ...] = ()) -> bytes:
    """Bytes of the truth-table file format: headers, 'p n', rows of 32 digits."""
    vals = np.asarray(table, dtype=np.uint8) + ord("0")
    full, rem = divmod(vals.size, 32)
    body = np.full((full, 64), ord(" "), dtype=np.uint8)
    body[:, 0::2] = vals[: full * 32].reshape(full, 32)
    body[:, 63] = ord("\n")
    head = "".join(h + "\n" for h in headers) + f"{p} {n}\n"
    tail = b" ".join(bytes([v]) for v in vals[full * 32 :]) + b"\n" if rem else b""
    return head.encode() + body.tobytes() + tail


# ---- classify-vec3 -------------------------------------------------------------

VEC3_P, VEC3_HALF = 3, 6


def _digit_rows(p: int, n: int) -> np.ndarray:
    idx = np.arange(p**n, dtype=np.int64)
    return np.stack([(idx // p**i) % p for i in range(n)], axis=1)


def mm_bent_table(rng: np.random.Generator) -> np.ndarray:
    """Maiorana-McFarland f(x, y) = x . pi(y) + g(y) on F_3^6 x F_3^6.

    x is the low six digits of a point's index and y the high six, so the
    table is laid out as T[y, x].
    """
    p, h = VEC3_P, VEC3_HALF
    D = _digit_rows(p, h)
    pi = rng.permutation(p**h)
    g = rng.integers(0, p, size=p**h)
    return ((D[pi] @ D.T + g[:, None]) % p).reshape(-1)


def random_table(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, VEC3_P, size=VEC3_P ** (2 * VEC3_HALF))


# ---- dual-field5 ----------------------------------------------------------------


class DualOracle:
    """Expected `pbent dual` output for Tr(a x^2 + c x) on F_{5^8}.

    With W(b) = sum_x e^(Tr(a x^2 + (c - b) x)), completing the square gives
    W(b) = e^(Tr(-(b - c)^2 / (4a))) * W_{Tr(a x^2)}(0), and the last factor
    is a rational integer for even m.  So the dual is
    b -> Tr(k (b - c)^2) with k = -1/(4a).
    """

    def __init__(self) -> None:
        self.field = Field(FIELD5_P, FIELD5_MODULUS)
        F = self.field
        self.header = (
            f"# field m={F.m} modulus={','.join(map(str, F.f))} "
            f"primitive={F.smallest_primitive()}"
        )
        self._digits = _digit_rows(F.p, F.m)

    def draw(self, rng: np.random.Generator) -> tuple[list[int], list[int]]:
        """Seeded coefficients (a, c) with a != 0."""
        F = self.field
        a = F.digits(int(rng.integers(1, F.q)))
        c = F.digits(int(rng.integers(0, F.q)))
        return a, c

    def expr(self, a, c) -> str:
        F = self.field
        return f"Tr(({F.poly_str(a)}) x^2) + Tr(({F.poly_str(c)}) x)"

    def expected(self, a, c) -> bytes:
        F = self.field
        p, m = F.p, F.m
        four_a = [(4 * d) % p for d in a]
        k = [(-d) % p for d in F.inv(four_a)]
        # Tr(k * w^t) for every power the unreduced square reaches
        s = np.array(
            [F.trace(F.mul(k, F.pow(_unit(1, m), t))) for t in range(2 * m - 1)],
            dtype=np.int64,
        )
        y = (self._digits - np.array(c, dtype=np.int64)) % p
        sq = np.zeros((F.q, 2 * m - 1), dtype=np.int64)
        for i in range(m):
            sq[:, i : i + m] += y[:, i : i + 1] * y
        dual = (sq @ s) % p
        return render_tt(dual, p, m, (self.header,))
