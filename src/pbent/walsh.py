"""Walsh transforms of p-ary functions, exact over Z[e_p].

The fast path runs an n-dimensional radix-p DFT on the "exponent histogram"
representation: a value of Z[e_p] is carried as p counts, one per root power,
so multiplying by a root power is a cyclic shift of the counts.  A radix-p
stage sends digit k at root power e to output digit j at root power
s = e + sign*j*k mod p.  For p <= 19 it is one matrix product of the
(digit, exponent) blocks against the fixed p^2 x p^2 0/1 kernel
K[(k, e), (j, s)] = [s = e + sign*j*k mod p], at most 2 MiB; for larger p
that product would cost p^3 * N multiply-adds and p^4 memory, so the stage
gathers one rotated p x p block per input digit instead (p^2 * N adds, p^2
memory).  Both run over bounded row chunks.  The stages run in Stockham
order: each one transforms the most significant digit and writes it back as
the least significant, so after n stages every digit is in its original
place and no reordering pass is needed.

The stages run in float64, which is exact while every partial sum stays
below 2^53.  A stage output entry is a sum of p input entries, so after n
stages every partial sum is at most max|E| * p^n; the stages assert
max|E| * N < 2^53 on their input.  That holds for walsh_fast's 0/1 input and
for Poisson's signed input (canonical coefficients, |c| <= N) because
N^2 <= SIZE_LIMIT^2 < 2^53.  The squared moduli in abs_sq_rows are int64
sums whose size stays below p^(3n) <= SIZE_LIMIT^3 < 2^63.  Both bounds are
asserted against SIZE_LIMIT below, so raising the limit fails loudly.

A transform holds about four N x p count arrays, so walsh_fast refuses
N * p > 2^24 with DomainError before allocating (at most 128 MiB per array;
F_{1048573} would need 8 TiB each).  That admits every domain within
SIZE_LIMIT for p <= 13 (asserted below), the largest at p = 17, 19 and 23,
53^3 points and one-digit domains up to p = 4093.

The naive path evaluates the defining double sum with the domain's own
pairing and shares none of that machinery, which keeps the two routes
independent.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cyclo import CycInt, fold_top
from .field import SIZE_LIMIT
from .pfunc import Domain, DomainError, PFunction

_FLOAT_EXACT = 1 << 53  # float64 holds every integer below this exactly
assert SIZE_LIMIT * SIZE_LIMIT < _FLOAT_EXACT, "Poisson's signed input exceeds float64"
assert SIZE_LIMIT**3 < 1 << 63, "squared moduli exceed int64"
_EXPONENT_LIMIT = 1 << 24  # entries of one N x p count array
assert 13 * SIZE_LIMIT <= _EXPONENT_LIMIT, "full-size domains at p <= 13 are refused"

# Multiply-adds (or gathered entries) per stage call.  Products this small
# stay on one BLAS thread; one product per stage woke OpenBLAS's second
# thread, which made a 5^8-point `pbent dual` about 60% slower on a 2-core
# machine.
_CHUNK_MACS = 1 << 18


@lru_cache(maxsize=None)
def _stage_kernel(p: int, sign: int) -> np.ndarray:
    """K[(k, e), (j, s)] = 1 when digit k at root power e feeds output digit j
    at root power s = e + sign*j*k mod p."""
    k, e, j = np.ix_(range(p), range(p), range(p))
    K = np.zeros((p, p, p, p))
    K[k, e, j, (e + sign * j * k) % p] = 1
    K = K.reshape(p * p, p * p)
    K.flags.writeable = False
    return K


def _stage_product(top: np.ndarray, out: np.ndarray, p: int, sign: int) -> None:
    """out[m, j, s] = sum_k top[k, m, s - sign*j*k]: one product against the
    p^2 x p^2 kernel per chunk of rows."""
    M = out.shape[0]
    K = _stage_kernel(p, sign)
    rows = _CHUNK_MACS // p**4
    block = np.empty((min(rows, M), p, p))
    flat = out.reshape(M, p * p)
    for r0 in range(0, M, rows):
        r1 = min(r0 + rows, M)
        blk = block[: r1 - r0]
        np.copyto(blk, top[:, r0:r1].transpose(1, 0, 2))
        np.matmul(blk.reshape(r1 - r0, p * p), K, out=flat[r0:r1])


def _stage_gather(top: np.ndarray, out: np.ndarray, p: int, sign: int) -> None:
    """The same stage as _stage_product, one gathered p x p block of root
    powers per input digit k: O(p^2) memory and p^2 * N adds, for primes
    whose kernel would be too large to pay off."""
    M = out.shape[0]
    rows = max(1, _CHUNK_MACS // (p * p))
    out[...] = 0
    s = np.arange(p)
    for k in range(p):
        shift = (s[None, :] - sign * k * s[:, None]) % p  # [j, s] -> e
        for r0 in range(0, M, rows):
            r1 = min(r0 + rows, M)
            out[r0:r1] += top[k, r0:r1][:, shift]


def _dft_exponent(E: np.ndarray, p: int, n: int, sign: int) -> np.ndarray:
    """All n radix-p stages, kernel e^(sign * j * k), exact in float64.

    A float64 E is used as scratch space and overwritten.
    """
    N = E.shape[0]
    assert int(np.abs(E).max()) * N < _FLOAT_EXACT, "stage sums would not be exact"
    M = N // p
    # the product stops paying off once one kernel exceeds a chunk (p >= 23)
    stage = _stage_product if p**4 <= _CHUNK_MACS else _stage_gather
    src = E.astype(np.float64, copy=False)
    dst = np.empty_like(src)
    for _ in range(n):
        # (top digit, lower digits, exponent) -> (lower digits, new digit, exponent)
        stage(src.reshape(p, M, p), dst.reshape(M, p, p), p, sign)
        src, dst = dst, src
    return src.astype(np.int64)


def _expand(values: np.ndarray) -> np.ndarray:
    # canonical coefficients are also a valid exponent representation
    pad = np.zeros((values.shape[0], 1), dtype=values.dtype)
    return np.concatenate([values, pad], axis=1)


def rotate_rows(values: np.ndarray, p: int, e) -> np.ndarray:
    """Multiply canonical row i by the root power e^(e[i]); an int e applies
    the same power to every row, and a single row broadcasts against e."""
    cols = (np.arange(p) - np.reshape(e, (-1, 1))) % p
    return fold_top(np.take_along_axis(_expand(values), cols, axis=1))


def mul_rows(values: np.ndarray, p: int, coeffs) -> np.ndarray:
    """Multiply every canonical row by the element with canonical coefficients
    coeffs: the rows rotated by e^j, weighted by coeffs[j], summed exactly."""
    out = np.zeros_like(values)
    for j, c in enumerate(coeffs):
        if c:
            out += int(c) * rotate_rows(values, p, j)
    return out


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
            self._abs_sq = fold_top(R)
        return self._abs_sq

    def parseval_ok(self) -> bool:
        """Exact check of the energy identity: total |W|^2 equals p^(2 n_total)."""
        total = self.abs_sq_rows().sum(axis=0)
        expected = np.zeros(self.domain.p - 1, dtype=np.int64)
        expected[0] = self.domain.p ** (2 * self.domain.n_total)
        return bool(np.array_equal(total, expected))

    def histogram(self) -> list[tuple[CycInt, int]]:
        """Distinct |W|^2 values with multiplicities, sorted by coefficients."""
        rows = self.abs_sq_rows()
        rows = rows[np.lexsort(rows.T[::-1])]
        starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
        counts = np.diff(np.r_[starts, len(rows)])
        p = self.domain.p
        return [(CycInt(p, rows[i]), int(c)) for i, c in zip(starts, counts)]

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


def _by_pairing(values: np.ndarray, dom: Domain) -> np.ndarray:
    """Re-index dot-product transform rows by the pairing's Gram matrix
    (<b, x> = (C b) . x); an identity C (vector parts, F_p) needs nothing."""
    C = dom.gram()
    if np.array_equal(C, np.eye(dom.n_total, dtype=C.dtype)):
        return values
    return values[dom.walsh_perm()]


def walsh_fast(f: PFunction) -> WalshSpectrum:
    """Radix-p DFT over Z[e_p], O(n p^n) ring operations, exact.

    The dot-product transform is computed digit by digit; field components
    are folded in afterwards by re-indexing with the pairing's Gram matrix.
    """
    dom = f.domain
    p, N, n = dom.p, dom.size, dom.n_total
    if N * p > _EXPONENT_LIMIT:
        raise DomainError(f"a transform on {p}^{n} points needs {N * p} counts, over 2^24")
    E = np.zeros((N, p))
    E[np.arange(N), f.table] = 1
    values = _by_pairing(fold_top(_dft_exponent(E, p, n, sign=-1)), dom)
    return WalshSpectrum(dom, values)


def poisson_check(f: PFunction, W: WalshSpectrum) -> bool:
    """Exact inversion identity: sum_b e^<b,y> W(b) = p^n e^(f(y)) at every y."""
    dom = f.domain
    if W.domain != dom:
        raise ValueError("spectrum does not belong to this function's domain")
    p, n = dom.p, dom.n_total
    E = _dft_exponent(_expand(W.values), p, n, sign=+1)
    lhs = _by_pairing(fold_top(E), dom)
    rhs = rotate_rows(np.eye(1, p - 1, dtype=np.int64) * dom.size, p, f.table)
    return bool(np.array_equal(lhs, rhs))
