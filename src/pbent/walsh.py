"""Walsh transforms of p-ary functions, exact over Z[e_p].

The fast path runs an n-dimensional radix-p DFT on the "exponent histogram"
representation: a value of Z[e_p] is carried as p nonnegative counts, one per
root power, so every butterfly is a cyclic shift plus an add and all
intermediate entries stay below p^n.  With the domain size capped at 2^20
everything fits comfortably in int64 (counts <= 2^20, squared-modulus sums
<= p^(3n) < 2^63).  The naive path evaluates the defining double sum with the
domain's own pairing and shares none of that machinery, which keeps the two
routes independent.
"""
from __future__ import annotations

import numpy as np

from .cyclo import CycInt
from .pfunc import Domain, PFunction


def _axis_pass(E: np.ndarray, p: int, t: int, sign: int) -> np.ndarray:
    """One radix-p stage over digit t; kernel e^(sign * j * k)."""
    N = E.shape[0]
    L = p**t
    H = N // (p ** (t + 1))
    V = E.reshape(H, p, L, p)
    out = np.zeros_like(V)
    for j in range(p):
        acc = out[:, j]
        for k in range(p):
            s = (sign * j * k) % p
            blk = V[:, k]
            acc += np.roll(blk, s, axis=-1) if s else blk
    return out.reshape(N, p)


def _dft_exponent(E: np.ndarray, p: int, n: int, sign: int) -> np.ndarray:
    for t in range(n):
        E = _axis_pass(E, p, t, sign)
    return E


def _canonicalize(E: np.ndarray) -> np.ndarray:
    # fold away the top root power: e^(p-1) = -(1 + e + ... + e^(p-2))
    return E[:, :-1] - E[:, -1:]


def _expand(values: np.ndarray) -> np.ndarray:
    # canonical coefficients are also a valid exponent representation
    pad = np.zeros((values.shape[0], 1), dtype=values.dtype)
    return np.concatenate([values, pad], axis=1)


def _root_rows(p: int, exponents: np.ndarray, scale: int = 1) -> np.ndarray:
    """Canonical rows of scale * e^(exponents[i]) for an int array of exponents."""
    N = exponents.shape[0]
    E = np.zeros((N, p), dtype=np.int64)
    E[np.arange(N), exponents % p] = scale
    return _canonicalize(E)


def rotate_rows(values: np.ndarray, p: int, e) -> np.ndarray:
    """Multiply canonical row i by the root power e^(e[i]); an int e applies
    the same power to every row."""
    cols = (np.arange(p) - np.reshape(e, (-1, 1))) % p
    return _canonicalize(np.take_along_axis(_expand(values), cols, axis=1))


class WalshSpectrum:
    """Exact spectrum: one Z[e_p] value per target vector b, in index order."""

    def __init__(self, domain: Domain, values: np.ndarray) -> None:
        if values.shape != (domain.size, domain.p - 1):
            raise ValueError("spectrum shape does not match the domain")
        self.domain = domain
        self.values = values
        self._abs_sq: np.ndarray | None = None

    def __getitem__(self, b: int) -> CycInt:
        return CycInt(self.domain.p, self.values[b])

    def __len__(self) -> int:
        return self.domain.size

    def abs_sq_rows(self) -> np.ndarray:
        """Canonical coefficient rows of |W(b)|^2 for every b."""
        if self._abs_sq is None:
            p = self.domain.p
            A = _expand(self.values)
            R = np.zeros_like(A)
            for e in range(p):
                for j in range(p):
                    R[:, e] += A[:, j] * A[:, (j - e) % p]
            self._abs_sq = _canonicalize(R)
        return self._abs_sq

    def parseval_ok(self) -> bool:
        """Exact check of the energy identity: total |W|^2 equals p^(2 n_total)."""
        total = self.abs_sq_rows().sum(axis=0)
        expected = np.zeros(self.domain.p - 1, dtype=np.int64)
        expected[0] = self.domain.p ** (2 * self.domain.n_total)
        return bool(np.array_equal(total, expected))

    def histogram(self) -> list[tuple[CycInt, int]]:
        """Distinct |W|^2 values with multiplicities, sorted by coefficients."""
        rows, counts = np.unique(self.abs_sq_rows(), axis=0, return_counts=True)
        order = sorted(range(len(counts)), key=lambda i: tuple(rows[i]))
        p = self.domain.p
        return [(CycInt(p, rows[i]), int(counts[i])) for i in order]

    def histogram_json(self) -> dict[str, int]:
        return {str(v): c for v, c in self.histogram()}

    def to_json(self) -> dict:
        return {
            "p": self.domain.p,
            "domain": self.domain.describe(),
            "values": [[int(c) for c in row] for row in self.values],
            "abs_sq_histogram": self.histogram_json(),
        }


def walsh_naive(f: PFunction) -> WalshSpectrum:
    """Reference transform straight from the definition, O(N^2).

    For each b it tallies how often f(x) - <b, x> hits each residue and folds
    the histogram into canonical form.  Intended as the oracle for the fast
    path; fine up to a few hundred points.
    """
    dom = f.domain
    p, N = dom.p, dom.size
    table = [int(v) for v in f.table]
    ip = dom.inner_product
    values = np.zeros((N, p - 1), dtype=np.int64)
    for b in range(N):
        counts = [0] * p
        for x in range(N):
            counts[(table[x] - ip(b, x)) % p] += 1
        top = counts[p - 1]
        values[b] = [c - top for c in counts[: p - 1]]
    return WalshSpectrum(dom, values)


def walsh_fast(f: PFunction) -> WalshSpectrum:
    """Radix-p DFT over Z[e_p], O(n p^n) ring operations, exact.

    The dot-product transform is computed digit by digit; field components
    are folded in afterwards by re-indexing with the pairing's Gram matrix
    (<b, x> = (C b) . x).
    """
    dom = f.domain
    p, N, n = dom.p, dom.size, dom.n_total
    E = np.zeros((N, p), dtype=np.int64)
    E[np.arange(N), f.table] = 1
    E = _dft_exponent(E, p, n, sign=-1)
    values = _canonicalize(E)[dom.walsh_perm()]
    return WalshSpectrum(dom, values)


def poisson_check(f: PFunction, W: WalshSpectrum) -> bool:
    """Exact inversion identity: sum_b e^<b,y> W(b) = p^n e^(f(y)) at every y."""
    dom = f.domain
    if W.domain != dom:
        raise ValueError("spectrum does not belong to this function's domain")
    p, n = dom.p, dom.n_total
    E = _expand(W.values)
    E = _dft_exponent(E, p, n, sign=+1)
    lhs = _canonicalize(E)[dom.walsh_perm()]
    rhs = _root_rows(p, f.table, scale=dom.size)
    return bool(np.array_equal(lhs, rhs))
