"""Walsh transforms of p-ary functions, exact over Z[e_p].

Values travel as their p - 1 canonical coefficients (see cyclo).  The fast
path is the DFT over F_p^n, a tensor product of one DFT_p per digit with no
twiddles, run in place on float canonical rows.  walsh_stack transforms a
[B, N] stack of tables on one domain in one pass: the stack index sits above
each member's n digits, which alone the stages run over, and walsh_fast is
its stack of one.  The stage of digit d reads the rows as [a, k, b, coeff],
b < p^d, and overwrites the p rows k of each (a, b) with rows j = sum_k
e^(sign*j*k) * row k, in place.  For p <= 19 a stage is one product, in the
rows' dtype, per block of rows against the (p(p-1))^2 kernel of those
{-1, 0, 1} matrices (at p = 3, two digits by an 18 x 18 kernel); above, it
gathers rotated rows from a doubled zero-padded copy (p^2 * N adds), and
each member's top stage scatters N*p counts of its 0/1 input.  The stages
run in float32 in the [B, N, p-1] array that the spectra keep, exact by the
bound below, beside chunk buffers and, for a pairing that is not the
identity, a copy of the tables in their own dtype (pfunc.table_dtype): Gram
matrices are symmetric (asserted), so W(b) = DFT[f o C^-1](b), and each
table is scattered through the int32 walsh_perm into that copy.  Readers
cast the float32 rows to int64 a block at a time (WalshSpectrum).

The |W|^2 histogram sorts one exact mixed-radix key per row (_abs_sq_keys)
in place and splits them into runs by one bool mask, with no other N-sized
array; where the column spans reach 2^63, |W|^2 rows are lexsorted instead.

Exactness (a float of nmant mantissa bits holds every integer below
_exact_below(dtype) = 2^(nmant+1): 2^24 in float32, 2^53 in float64): a
row of coefficients c_i within A is p counts in [0, 2A], c_i + A and A on
top, less the top one; after t digits the counts are within 2 * p^t * A,
and a stage of r digits sums 2p^r kernel terms, so partial sums over s
digits stay within 4 * p^s * A.  walsh_stack's rows are 0/1, or within p
after the top digit's scatter, which leaves n - 1 digits: within
4 * N <= 2^22 in float32.  poisson_check's |W| <= N gives 4 * N^2 in
float64.  |W|^2 is each row's outer product over i <= j times a kernel
of sums of two {-1, 0, 1} rows (p <= 19), or a lag-gather autocorrelation,
within (p-1)^2 * max|c|^2 in float64.  Each bound is asserted on the
input.  A spectrum has |c| <= N, and walsh_stack refuses B * N * p > 2^24,
which caps a stack's B x N x p array at 128 MiB and admits, at B = 1,
p <= 13 up to SIZE_LIMIT, 53^3 and one-digit domains up to p = 4093.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cyclo import CycInt, fold_top
from .field import SIZE_LIMIT
from .pfunc import _TAKE_ROWS, Domain, DomainError, PFunction, table_dtype


def _exact_below(dtype) -> int:
    """2^(nmant + 1): a float dtype holds every integer of smaller magnitude."""
    return 1 << (np.finfo(dtype).nmant + 1)


assert 4 * SIZE_LIMIT < _exact_below(np.float32), "walsh_fast's stage sums are inexact"
assert 4 * SIZE_LIMIT**2 < _exact_below(np.float64), "Poisson's stage sums are inexact"
_EXPONENT_LIMIT = 1 << 24  # entries of one N x p array
assert 13 * SIZE_LIMIT <= _EXPONENT_LIMIT, "full-size domains at p <= 13 are refused"
assert _EXPONENT_LIMIT**2 < _exact_below(np.float64), "walsh_fast's |W|^2 is inexact"

# Multiply-adds per chunk: one product per stage woke OpenBLAS's second
# thread, which made a 5^8-point `pbent dual` 60% slower on 2 cores.
_CHUNK_MACS = 1 << 18
# Digits one product stage takes at p = 3, by an 18 x 18 kernel: every
# stage copies the array in and out, and a 3^12 transform took 20-23 ms by
# radix-9 stages against 34-36 ms by radix-3 ones.  At p = 5, radix-25
# stages were no faster.
_P3_STAGE_DIGITS = 2
# Largest p with product stages: a 23^4 transform took 3.5 s by products,
# 0.9 s gathered.
_PRODUCT_MAX_P = 19
# Entries of |W|^2 formed at a time for the histogram's keys: 8,192 rows at
# p = 3, whose chunk buffers take well under 1 MiB.
_KEY_ENTRIES = 1 << 14


def _root_rows(t, p: int) -> np.ndarray:
    """Canonical float64 rows of e^t for an integer array t."""
    return fold_top(np.equal.outer(np.mod(t, p), np.arange(p)).astype(np.float64))


@lru_cache(maxsize=None)
def _stage_kernel(p: int, sign: int, digits: int, dtype: np.dtype) -> np.ndarray:
    """K[(k, i), (j, s)]: coefficient s of e^i * e^(sign * j.k), for j and k
    below p^digits read as digit vectors, as `dtype` (the stage's array's)."""
    D = np.arange(p**digits)[:, None] // p ** np.arange(digits) % p
    kj = sign * (D @ D.T)
    K = _root_rows(np.arange(p - 1)[:, None] + kj[:, None], p).reshape(len(D) * (p - 1), -1)
    K = K.astype(dtype)
    K.flags.writeable = False
    return K


@lru_cache(maxsize=None)
def _abs_sq_kernel(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, Q) for |c|^2 = (c_i * c_j) @ Q over i <= j (c_i * c_j = c_j *
    c_i: half the products): row (i, j) of Q is e^(i - j) + e^(j - i) for
    i < j, and e^0 for i = j."""
    i, j = np.triu_indices(p - 1)
    Q = _root_rows(i - j, p) + (i < j)[:, None] * _root_rows(j - i, p)
    for arr in (i, j, Q):
        arr.flags.writeable = False
    return i, j, Q


def _rotations(rows: np.ndarray, p: int) -> np.ndarray:
    """View R[..., w, :]: the p counts of each row times e^-w, in rows' dtype."""
    pad = np.zeros(rows.shape[:-1] + (2 * p,), dtype=rows.dtype)
    pad[..., : p - 1] = pad[..., p:-1] = rows
    return sliding_window_view(pad, p, axis=-1)[..., :p, :]


def _row_elements(rows: np.ndarray) -> np.ndarray:
    """View each canonical row of a C-contiguous array as one opaque element."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))[..., 0]


def _max_abs(x: np.ndarray) -> int:
    """max|x| from the array's extremes, without an |x| copy."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _blocks(A: int, B: int, rows: int):
    """Slices (a0:a1, b0:b1) of an A x B grid of (a, b) pairs, each holding at
    most `rows` pairs: whole b ranges of several a while B is short, else
    runs of b within one a."""
    nb = min(B, rows)
    na = max(1, rows // nb)
    for a0 in range(0, A, na):
        for b0 in range(0, B, nb):
            yield slice(a0, a0 + na), slice(b0, b0 + nb)


def _stage_product(x: np.ndarray, K: np.ndarray) -> None:
    """x[a, j, b] = sum_k x[a, k, b] * e^(sign * j.k) in place, on an
    [a, k, b, coeff] view, for the kernel K = _stage_kernel(p, sign, digits)
    of k's digits: one product per block of (a, b) pairs.

    A block's canonical rows are copied into one buffer of x's dtype as
    whole (p-1)-float elements, [(a, b), k], which the product reads as
    floats; its [(a, b), j] result goes back the same way.  A transposed
    copy would move one float at a time, two per row at p = 3.
    """
    A, R, B, c = x.shape
    rows = min(A * B, max(1, _CHUNK_MACS // K.size))
    src, out = np.empty((2, rows, len(K)), dtype=x.dtype)
    src_e, out_e = (_row_elements(buf.reshape(rows, R, c)) for buf in (src, out))
    x_e = _row_elements(x)
    for a, b in _blocks(A, B, rows):
        blk = x_e[a, :, b]
        na, _, nb = blk.shape
        m = na * nb
        src_e[:m].reshape(na, nb, R)[...] = blk.transpose(0, 2, 1)
        np.matmul(src[:m], K, out=out[:m])
        blk[...] = out_e[:m].reshape(na, nb, R).transpose(0, 2, 1)


def _stage_gather(x: np.ndarray, p: int, sign: int) -> None:
    """The same stage, gathering rotated rows instead of multiplying."""
    lag = -sign * np.arange(p)
    # 53^3: 0.39 s a stage, 0.73 s at 4x rows
    rows = min(x.shape[0] * x.shape[2], max(1, _CHUNK_MACS // (4 * p * p)))
    for a, b in _blocks(x.shape[0], x.shape[2], rows):
        R = _rotations(x[a, :, b].transpose(1, 0, 2, 3), p)  # [k, a, b, w, s], a padded copy
        acc = R[0][..., [0] * p, :]
        for k in range(1, p):
            acc += R[k][..., lag * k % p, :]
        x[a, :, b] = fold_top(acc).transpose(0, 2, 1, 3)


def _stage_one_hot(table: np.ndarray, p: int, sign: int, out: np.ndarray) -> None:
    """The top digit's stage on rows e^(table), in place order, written to
    the N x (p-1) array out: N*p counts of e^(table[k, m] + sign*j*k) at
    row (j, m)."""
    g = table.reshape(p, -1, 1)
    kj = sign * np.outer(np.arange(p), np.arange(p))[:, None]
    rows = min(g.shape[1], max(1, _CHUNK_MACS // (p * p)))
    out = out.reshape(p, g.shape[1], p - 1)
    for r0 in range(0, g.shape[1], rows):
        m = min(rows, g.shape[1] - r0)
        e = (g[:, r0 : r0 + m] + kj) % p + np.arange(0, m * p * p, p).reshape(p, m).T
        counts = np.bincount(e.ravel(), minlength=m * p * p)  # e: flat (j, m, e) index
        out[:, r0 : r0 + m] = fold_top(counts.reshape(p, m, p))


def _dft(rows: np.ndarray, p: int, stages: int, sign: int) -> np.ndarray:
    """The DFT e^(sign * j.k) over the low `stages` digits of the row index
    of float canonical rows (float32 or float64), in place, one stage per
    digit (two at p = 3); returns rows."""
    N = rows.shape[0]
    bound = 4 * p**stages * _max_abs(rows)
    assert bound < _exact_below(rows.dtype), "stage sums would not be exact"
    r = _P3_STAGE_DIGITS if p == 3 else 1
    for d in range(0, stages, r):
        t = min(r, stages - d)
        x = rows.reshape(N // p ** (d + t), p**t, p**d, -1)
        if p <= _PRODUCT_MAX_P:
            _stage_product(x, _stage_kernel(p, sign, t, rows.dtype))
        else:
            _stage_gather(x, p, sign)
    return rows


def int_rows(rows: np.ndarray) -> np.ndarray:
    """rows as a C-contiguous int64 array (rows itself when it is one).  Float
    rows must hold integers: a value that is not one is refused, not
    truncated."""
    ints = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.dtype.kind == "f" and not np.array_equal(ints, rows):
        raise ValueError("spectral rows are not integral")
    return ints


def rotate_rows(values: np.ndarray, p: int, e) -> np.ndarray:
    """Multiply canonical row i by the root power e^(e[i]); an int e applies
    the same power to every row, and a single row broadcasts against e."""
    cols = (np.arange(p) - np.reshape(e, (-1, 1))) % p
    return fold_top(np.take_along_axis(np.pad(values, ((0, 0), (0, 1))), cols, axis=1))


def mul_rows(values: np.ndarray, p: int, coeffs) -> np.ndarray:
    """Multiply canonical rows by one element's coefficients, or each row by
    its own row of them: the sum over j of coefficient j times e^j * rows."""
    coeffs = np.asarray(coeffs)
    out = np.zeros_like(values)
    for j in range(p - 1):
        out += coeffs[..., j : j + 1] * rotate_rows(values, p, j)
    return out


def _abs_sq(values: np.ndarray, p: int) -> np.ndarray:
    """|c|^2 for every canonical row c, by row chunks."""
    N = values.shape[0]
    A = _max_abs(values)
    assert (p - 1) ** 2 * A * A < _exact_below(np.float64), "|W|^2 sums would not be exact"
    out = np.empty((N, p - 1), dtype=np.int64)
    small = p <= _PRODUCT_MAX_P
    if small:
        i, j, Q = _abs_sq_kernel(p)
    rows = max(1, _CHUNK_MACS // ((p - 1) ** 3 if small else p * p))
    for r0 in range(0, N, rows):
        c = values[r0 : r0 + rows].astype(np.float64)
        if small:  # products c_i * c_j, i <= j, formed in place in the gathered c[:, i]
            R = c[:, i]
            R *= c[:, j]
            R = R @ Q
        else:  # row . (row times e^-w) is the count of e^w in |c|^2
            R = fold_top(np.einsum("mws,ms->mw", _rotations(c, p)[..., :-1], c))
        out[r0 : r0 + rows] = R
    return out


def _key_dtype(span_product: int) -> np.dtype:
    """The narrowest dtype of _abs_sq_keys that holds the span product, and
    so every key below it: uint32 below 2^32, else int64."""
    return np.dtype(np.uint32 if span_product < 1 << 32 else np.int64)


def _abs_sq_keys(values: np.ndarray, p: int) -> tuple[np.ndarray, ...] | None:
    """One exact key per |W|^2 row, computed chunk by chunk from the values:
    the row's number in mixed radix, digit j being coefficient j less its
    least value, column 0 most significant, so that keys sort as rows do.
    Keys are uint32 while the product of the column spans is below 2^32
    (as for random tables on 3^12 points), else int64.  Returns (keys,
    least values, spans, place values), or None as soon as that product
    reaches 2^63 (as at p >= 5 on large domains).  Columns are reduced one
    at a time: an axis-0 min of the narrow |W|^2 array took 15x as long.
    """
    step = max(1, _KEY_ENTRIES // (p - 1))
    starts = range(0, len(values), step)
    lo = np.full(p - 1, np.iinfo(np.int64).max)
    hi = np.full(p - 1, np.iinfo(np.int64).min)
    for r0 in starts:
        for j, col in enumerate(_abs_sq(values[r0 : r0 + step], p).T):
            lo[j], hi[j] = min(lo[j], col.min()), max(hi[j], col.max())
        spans = (hi - lo + 1).tolist()
        if math.prod(spans) >= 1 << 63:
            return None
    place = [math.prod(spans[j + 1 :]) for j in range(p - 1)]
    dtype = _key_dtype(math.prod(spans))
    assert math.prod(spans) <= np.iinfo(dtype).max, f"{dtype} cannot hold the span product"
    keys = np.empty(len(values), dtype=dtype)
    for r0 in starts:  # each partial sum is below the product of the spans
        sq = _abs_sq(values[r0 : r0 + step], p)
        key = np.zeros(len(sq), dtype=np.int64)
        for col, low, span, weight in zip(sq.T, lo, spans, place):
            if span > 1:  # a constant column adds nothing
                key += (col - low) * weight
        keys[r0 : r0 + step] = key
    return keys, lo, np.array(spans), np.array(place)


def _runs(columns: np.ndarray | list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal rows in sorted rows, given as
    columns: a run starts where any column changes, marked in one bool mask
    a column at a time (a 2-D compare with .any(axis=1) took 7x as long at
    3^12)."""
    n = len(columns[0])
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(columns[0][1:], columns[0][:-1], out=new[1:])
    for col in columns[1:]:
        new[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(new)
    return starts, np.diff(starts, append=n)


class WalshSpectrum:
    """Exact spectrum: one Z[e_p] value per target vector b, in index order.

    `rows` holds the canonical coefficient rows as the producer gave them:
    int64, or walsh_fast's float32 rows, which hold integers exactly.  Readers
    that cast a block at a time take `rows`; `values` is the int64 array.
    """

    def __init__(self, domain: Domain, rows: np.ndarray) -> None:
        if rows.shape != (domain.size, domain.p - 1):
            raise ValueError("spectrum shape does not match the domain")
        self.domain = domain
        self.rows = rows
        self._abs_sq: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        """The C-contiguous int64 rows.  The first read widens other rows,
        refusing any that are not integral, and keeps only the int64 array."""
        self.rows = int_rows(self.rows)
        return self.rows

    def __getitem__(self, b: int) -> CycInt:
        return CycInt(self.domain.p, int_rows(self.rows[b]))

    def __len__(self) -> int:
        return self.domain.size

    def abs_sq_rows(self) -> np.ndarray:
        """Canonical coefficient rows of |W(b)|^2 for every b."""
        if self._abs_sq is None:
            self._abs_sq = _abs_sq(self.rows, self.domain.p)
        return self._abs_sq

    def parseval_ok(self) -> bool:
        """Exact check of the energy identity: total |W|^2 equals p^(2 n_total)."""
        dom = self.domain
        return CycInt(dom.p, self.abs_sq_rows().sum(axis=0)) == dom.p ** (2 * dom.n_total)

    def _distinct_abs_sq(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct |W|^2 rows, sorted by coefficients, and their counts.
        The keys are sorted in place, with no sorted copy as np.unique makes."""
        found = _abs_sq_keys(self.rows, self.domain.p)
        if found is not None:
            keys, lo, spans, place = found
            del found  # the N keys are dropped once their runs are split
            keys.sort()
            starts, counts = _runs([keys])
            keys = keys[starts]
            rows = np.empty((len(keys), len(lo)), dtype=np.int64)
            for j, (weight, span) in enumerate(zip(place.tolist(), spans.tolist())):
                rows[:, j] = keys // weight % span  # in the keys' dtype: uint32 divides fast
            rows += lo
            return rows, counts
        rows = self.abs_sq_rows()
        rows = np.take(rows, np.lexsort(rows.T[::-1]), axis=0)
        starts, counts = _runs(rows.T)
        return rows[starts], counts

    def histogram(self) -> list[tuple[CycInt, int]]:
        """Distinct |W|^2 values with multiplicities, sorted by coefficients."""
        p = self.domain.p
        rows, counts = self._distinct_abs_sq()
        return [(CycInt(p, row), c) for row, c in zip(rows.tolist(), counts.tolist())]

    def histogram_json(self) -> dict[str, int]:
        """The histogram keyed by each value's text, formatted from its row."""
        return self.histogram_member().value()

    def histogram_member(self):
        """The histogram as a jsontext.HistogramJSON, which forms its rows,
        and from them its dict or its JSON text, only when asked."""
        from .jsontext import HistogramJSON  # imported on use (jsontext's docstring)

        return HistogramJSON(self._distinct_abs_sq)

    def json_members(self) -> dict:
        """to_json's members, with the N rows of values and the histogram as
        jsontext members, which write their own JSON text (json_chunks)."""
        from .jsontext import RowsJSON

        return {
            "p": self.domain.p,
            "domain": self.domain.describe(),
            "values": RowsJSON(self.rows),
            "abs_sq_histogram": self.histogram_member(),
        }

    def to_json(self) -> dict:
        from .jsontext import plain

        return plain(self.json_members())


def walsh_naive(f: PFunction) -> WalshSpectrum:
    """The fast path's oracle, O(N^2): for each b, tally f(x) - <b, x> by
    residue over every x.  Its pairing, Domain.inner_product, reads only the
    Gram matrix, all it shares with walsh_fast; test_naive_equals_trace_tally
    and test_field_inner_product_is_trace_of_product tie it to Tr(b*x)."""
    dom = f.domain
    p, N = dom.p, dom.size
    points = np.arange(N)
    values = np.empty((N, p - 1), dtype=np.int64)
    for b in range(N):
        counts = np.bincount((f.table - dom.inner_product(b, points)) % p, minlength=p)
        values[b] = counts[:-1] - counts[-1]
    return WalshSpectrum(dom, values)


def _pairing(dom: Domain) -> np.ndarray | None:
    """walsh_perm(), or None for an identity Gram matrix (vectors, F_p)."""
    C = dom.gram()
    assert np.array_equal(C, C.T), "the pairing is not symmetric"
    return None if np.array_equal(C, np.eye(len(C))) else dom.walsh_perm()


def walsh_stack(dom: Domain, tables: np.ndarray) -> np.ndarray:
    """The spectra of a [B, N] stack of tables on dom, entries in 0..p-1, as
    [B, N, p-1] float32 canonical rows: O(n p^n) ring operations a member."""
    p, N, n, B = dom.p, dom.size, dom.n_total, len(tables)
    if B * N * p > _EXPONENT_LIMIT:
        points = f"{B} x {p}^{n}" if B > 1 else f"{p}^{n}"
        raise DomainError(f"a transform on {points} points needs {B * N * p} counts, over 2^24")
    if (perm := _pairing(dom)) is not None:
        # an int64 copy took 3 MiB at 5^8, and scattering the rows through
        # perm instead took 4.1 against 2.2 ms
        scattered = np.empty((B, N), dtype=table_dtype(p))
        scattered[:, perm] = tables
        tables = scattered
    rows = np.empty((B, N, p - 1), dtype=np.float32)
    flat = rows.reshape(B * N, p - 1)
    if p <= _PRODUCT_MAX_P:
        roots = _root_rows(np.arange(p), p).astype(np.float32)
        table = tables.reshape(B * N)
        # mode="raise" would buffer out; e^t has period p
        for x0 in range(0, B * N, _TAKE_ROWS):
            b = slice(x0, x0 + _TAKE_ROWS)
            np.take(roots, table[b], axis=0, out=flat[b], mode="wrap")
        _dft(flat, p, n, -1)
    else:
        for table, out in zip(tables, rows):
            _stage_one_hot(table, p, -1, out)
        _dft(flat, p, n - 1, -1)
    return rows


def walsh_fast(f: PFunction) -> WalshSpectrum:
    """f's spectrum: walsh_stack of the stack of one."""
    return WalshSpectrum(f.domain, walsh_stack(f.domain, f.table[None])[0])


def poisson_check(f: PFunction, W: WalshSpectrum) -> bool:
    """Exact inversion identity: sum_b e^<b,y> W(b) = p^n e^(f(y)) at every y."""
    dom = f.domain
    if W.domain != dom:
        raise ValueError("spectrum does not belong to this function's domain")
    p, n = dom.p, dom.n_total
    lhs = _dft(W.rows.astype(np.float64), p, n, sign=+1)
    if (perm := _pairing(dom)) is not None:
        lhs = lhs[perm]  # np.take would copy the int32 index whole, as intp
    rhs = dom.size * np.take(_root_rows(np.arange(p), p), f.table, axis=0)
    return bool(np.array_equal(lhs, rhs))
