"""Bentness, dual extraction, and regularity classification.

A function on p^n points is bent when every squared spectral modulus equals
p^n.  With P_n the exact stand-in for p^(n/2),

    n even:  P_n = p^(n/2), a rational integer;
    n odd:   P_n = p^((n-1)/2) * g_p  with g_p the quadratic Gauss sum,
             equal to sqrt(p) (p = 1 mod 4) or i*sqrt(p) (p = 3 mod 4),

x * conj(x) = p^n holds in Z[e_p] iff x = u * P_n * e^c, u = +-1, c in
0..p-1 (Kumar, Scholtz and Welch, JCTA 40, 1985): (1 - e) is the only prime
over p, so (x) = (P_n); x / P_n is then a unit whose conjugates all have
modulus 1, a root of unity by Kronecker, and those of Q(e_p) are +-e^c.  So
matching each W(b) exactly against these 2p candidates decides bentness
without forming |W|^2, and yields the dual c and the unit map u.  The
complex unit in front of p^(n/2) is u when P_n is real and u*i when P_n is
imaginary (odd n, p = 3 mod 4); "regular" requires that unit to be
literally 1, hence u = +1 and a real P_n.

A weakly regular f has a bent dual: with W_f(b) = u * P_n * e^(f*(b)) for a
constant u, the inversion formula sum_b e^(<b,y>) W_f(b) = p^n e^(f(y)) and
P_n * conj(P_n) = p^n give W_f*(-y) = u * conj(P_n) * e^(f(y)), so classify
transforms f* only when the unit map varies.

classify_stack classifies a [B, N] stack of tables on one domain by one
stacked transform (walsh.walsh_stack) and one block-wise match, in stack
order; classify, is_bent and extract_dual are its stack of one.  Each
member's witnesses are its own smallest failing b, as its stack of one
gives them.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cyclo import CycInt, gauss_sum, legendre
from .pfunc import Domain, PFunction, table_dtype
from .walsh import WalshSpectrum, _blocks, int_rows, rotate_rows, walsh_fast, walsh_stack

NOT_BENT = "not_bent"
REGULAR = "regular"
WEAKLY_REGULAR = "weakly_regular_not_regular"
NON_WEAKLY_REGULAR = "non_weakly_regular"

# Spectrum rows matched at a time.  A block's int64 cast, codes, positions
# and compares take about 0.3 MiB at p = 5; a block costs O(p) numpy calls,
# so much smaller blocks slow the match.
_MATCH_ROWS = 1 << 12


class DualExtractionError(RuntimeError):
    """W(witness) matches no bent candidate, so the function is not bent;
    callers turn this into a "not bent" verdict, not an input error."""

    def __init__(self, witness: int) -> None:
        super().__init__(f"spectral value at b={witness} matches no bent candidate")
        self.witness = witness


class Verdict(NamedTuple):
    ok: bool
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def bent_normalizer(p: int, n: int) -> CycInt:
    """P_n, the exact ring representative of p^(n/2)."""
    if n % 2 == 0:
        return CycInt.from_int(p, p ** (n // 2))
    return gauss_sum(p) * (p ** ((n - 1) // 2))


def _code_weights(width: int) -> np.ndarray:
    """The uint64 weight of each coefficient in a row's code."""
    w = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return w ^ (w >> np.uint64(29))


def _row_codes(columns: Iterator[np.ndarray], width: int) -> np.ndarray:
    """One uint64 code per canonical row, from its `width` int64 columns in
    order: a fixed weighted sum, mod 2^64, accumulated a column at a time.
    _candidate_table forms its codes this way too; on a 4,096 x 4 block
    this took 19 us against 21 us for a uint64 matmul (best of 2,000)."""
    weights = iter(_code_weights(width))
    codes = next(columns).view(np.uint64) * next(weights)
    for col, w in zip(columns, weights):
        codes += col.view(np.uint64) * w
    return codes


def _candidate_column(u: np.ndarray, c: np.ndarray, counts: np.ndarray, j: int) -> np.ndarray:
    """Coefficient j of the candidates u * P_n * e^c, from P_n's p counts
    (a zero on top): the counts rotated by c, with the top folded away."""
    p = len(counts)
    return u * (counts[(j - c) % p] - counts[(-1 - c) % p])


@lru_cache(maxsize=None)
def _candidate_table(p: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 2p bent values u * P_n * e^c sorted by row code, as (codes, u, c,
    P_n's p counts with a zero on top).  _candidate_column forms a column of
    the rows on use, so the table holds O(p) entries."""
    counts = np.append(bent_normalizer(p, n).coeffs, 0).astype(np.int64)
    i = np.arange(2 * p)
    u, c = np.where(i < p, 1, -1), i % p
    codes = _row_codes((_candidate_column(u, c, counts, j) for j in range(p - 1)), p - 1)
    order = np.argsort(codes)
    table = (codes[order], u[order], c[order], counts)
    assert np.all(table[0][1:] != table[0][:-1]), f"candidate codes collide for p={p}, n={n}"
    for arr in table:
        arr.flags.writeable = False  # shared by every caller through the cache
    return table


def match_rows(values: np.ndarray, p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate-table position of every canonical row, and whether the row
    is that candidate (|row|^2 = p^n).  The code only picks the candidate;
    the verdict is exact row equality, so a code collision cannot change it.
    Rows are compared a column at a time (a 2-D compare took 7x as long at
    3^12), each against that column of the picked candidates."""
    codes, u, c, counts = _candidate_table(p, n)
    values = int_rows(values)
    pos = np.searchsorted(codes, _row_codes(iter(values.T), p - 1))
    np.minimum(pos, codes.size - 1, out=pos)
    hit = np.ones(len(values), dtype=bool)
    for j in range(p - 1):
        hit &= np.take(_candidate_column(u, c, counts, j), pos) == values[:, j]
    return pos, hit


def _match(rows: np.ndarray, p: int, n: int, duals: bool = True) -> tuple:
    """match_rows on a [B, N, p-1] stack of spectra, cast to int64 a block of
    at most _MATCH_ROWS rows at a time (walsh._blocks).  Returns each member's
    first bad b, or -1 if it is bent, and, if asked, the [B, N] duals in
    pfunc.table_dtype(p), int8 unit maps and each member's first b with
    u(b) != u(0), or -1 (all garbage where not bent), written a block at a
    time with no N-sized temporary.  Blocks whose members have all missed are skipped: at B = 1
    the match stops at the block of the first bad b."""
    B, N = rows.shape[:2]
    _, u, c, _ = _candidate_table(p, n)
    bad, flips = np.full(B, -1), np.full(B, -1)
    tables = np.empty((B, N), dtype=table_dtype(p)) if duals else None
    units = np.empty((B, N), dtype=np.int8) if duals else None
    for a, b in _blocks(B, N, _MATCH_ROWS):
        if bad[a].min() >= 0:
            continue
        shape = rows[a, b].shape[:2]
        pos, hit = match_rows(rows[a, b].reshape(-1, p - 1), p, n)
        if duals:
            tables[a, b], units[a, b] = c[pos].reshape(shape), u[pos].reshape(shape)
            _first(flips[a], units[a, b] != units[a, :1], b.start)
        if not hit.all():
            _first(bad[a], ~hit.reshape(shape), b.start)
    return bad, tables, units, flips


def _first(at: np.ndarray, mask: np.ndarray, b0: int) -> None:
    """Set at[k] to b0 plus the first True column of mask's row k, in place,
    where at[k] is still -1 and the row has one."""
    new = (at < 0) & mask.any(axis=1)
    at[new] = b0 + mask[new].argmax(axis=1)


def is_bent(W: WalshSpectrum) -> Verdict:
    """True when |W(b)|^2 = p^n exactly for every b; witness is the first failure."""
    b = int(_match(W.rows[None], W.domain.p, W.domain.n_total, duals=False)[0][0])
    return Verdict(b < 0, None if b < 0 else b)


def extract_dual(W: WalshSpectrum) -> tuple[PFunction, np.ndarray]:
    """Recover (dual function, int8 unit map b -> u(b) = +-1) from a bent
    spectrum: W(b) = u(b) * P_n * e^(dual(b)).  The first b where it is not
    raises DualExtractionError, since then the function is not bent."""
    bad, tables, units, _ = _match(W.rows[None], W.domain.p, W.domain.n_total)
    if bad[0] >= 0:
        raise DualExtractionError(int(bad[0]))
    return PFunction(W.domain, tables[0]), units[0]


@dataclass
class ClassReport:
    """Everything classify() learned about one function.  unit_map is
    extract_dual's int8 map b -> u(b), each entry +1 or -1."""

    p: int
    domain: Domain
    is_bent: bool
    regularity: str
    spectrum: WalshSpectrum
    dual: PFunction | None = None
    unit_map: np.ndarray | None = None
    constant_unit: int | None = None
    zeta: str | None = None
    dual_is_bent: bool | None = None
    witnesses: dict[str, int] = field(default_factory=dict)

    def has_non_bent_dual(self) -> bool:
        """Bent and not weakly regular, with a dual that is not bent: the
        behaviour the paper's examples and the pair search look for."""
        return (
            self.is_bent
            and self.regularity == NON_WEAKLY_REGULAR
            and self.dual_is_bent is False
        )

    def json_members(self) -> dict:
        """to_json's members, a non-bent spectrum's histogram as a
        jsontext.HistogramJSON, which writes its own JSON text."""
        out: dict = {
            "p": self.p,
            "domain": self.domain.describe(),
            "bent": self.is_bent,
            "regularity": self.regularity,
        }
        if self.zeta is not None:
            out["constant_unit"] = self.zeta
        if self.dual_is_bent is not None:
            out["dual_bent"] = self.dual_is_bent
        out["witnesses"] = [
            {"kind": k, "index": v} for k, v in sorted(self.witnesses.items())
        ]
        bent_hist = {str(self.p**self.domain.n_total): len(self.spectrum)}  # |W(b)|^2 = p^n
        out["spectrum_histogram"] = bent_hist if self.is_bent else self.spectrum.histogram_member()
        return out

    def to_json(self) -> dict:
        from .jsontext import plain  # imported on use (jsontext's docstring)

        return plain(self.json_members())


def classify_stack(dom: Domain, tables: np.ndarray) -> list[ClassReport]:
    """classify of each table of a [B, N] stack on dom: one stacked transform
    and match, then one of the duals of the members whose unit map varies; a
    constant one makes the dual bent (module docstring).  Witnesses are the
    smallest b proving each negative verdict of a member."""
    p, n = dom.p, dom.n_total
    rows = walsh_stack(dom, tables)
    bad, duals, units, flips = _match(rows, p, n)
    bent = bad < 0
    mismatch = np.where(bent, flips, -1)
    varies = mismatch >= 0
    dual_bad = np.full(len(rows), -1)
    if varies.any():
        stack = duals if varies.all() else duals[varies]  # no copy when all vary
        dual_bad[varies] = _match(walsh_stack(dom, stack), p, n, duals=False)[0]
    imaginary = n % 2 == 1 and p % 4 == 3  # P_n = p^((n-1)/2) * i*sqrt(p)
    found = {"not_bent_at": bad, "unit_mismatch_at": mismatch, "dual_not_bent_at": dual_bad}
    reports = []
    for k, W in enumerate(rows):
        report = ClassReport(p, dom, bool(bent[k]), NOT_BENT, WalshSpectrum(dom, W))
        report.witnesses = {kind: int(at[k]) for kind, at in found.items() if at[k] >= 0}
        reports.append(report)
        if bent[k]:
            report.dual, report.unit_map = PFunction(dom, duals[k]), units[k]
            report.dual_is_bent, report.regularity = bool(dual_bad[k] < 0), NON_WEAKLY_REGULAR
        if bent[k] and not varies[k]:
            u = report.constant_unit = int(units[k, 0])
            report.zeta = ("+" if u == 1 else "-") + ("i" if imaginary else "1")
            report.regularity = REGULAR if (u == 1 and not imaginary) else WEAKLY_REGULAR
    return reports


def classify(f: PFunction) -> ClassReport:
    """Bent or not, regularity, dual and dual bentness: the stack of one."""
    return classify_stack(f.domain, f.table[None])[0]


def weak_regular_dual_relation(f: PFunction, report: ClassReport) -> Verdict:
    """Exact inverse-duality check for weakly regular bent functions.

    Verifies W_dual(-y) = u * Q_n * e^(f(y)) at every y, where Q_n is P_n for
    even n and legendre(-1, p) * P_n for odd n (that factor is conj(g_p)/g_p),
    and additionally that dual(dual) equals y -> f(-y) as tables.  Requires a
    weakly regular report; returns the first failing y otherwise.
    """
    if report.regularity not in (REGULAR, WEAKLY_REGULAR):
        raise ValueError("the inverse duality relation needs a weakly regular function")
    dom = f.domain
    p, n = dom.p, dom.n_total
    q_n = bent_normalizer(p, n)
    if n % 2 == 1:
        q_n = q_n * legendre(-1, p)
    u = report.constant_unit or 1
    target_scalar = q_n if u == 1 else -q_n

    Wd = walsh_fast(report.dual)
    neg = dom.negation_perm()
    lhs = np.take(Wd.values, neg, axis=0)  # row y holds W_dual(-y)
    # rhs rows: target_scalar * e^(f(y))
    base = np.array(target_scalar.coeffs, dtype=np.int64)
    rhs = rotate_rows(np.broadcast_to(base, lhs.shape), p, f.table)
    mism = (lhs != rhs).any(axis=1)
    if mism.any():
        return Verdict(False, int(np.argmax(mism)))

    ddual, _ = extract_dual(Wd)
    if not np.array_equal(ddual.table, f.table[neg]):
        bad = int(np.argmax(ddual.table != f.table[neg]))
        return Verdict(False, bad)
    return Verdict(True)
