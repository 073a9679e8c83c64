"""Bentness, dual extraction, and regularity classification.

A function on p^n points is bent when every squared spectral modulus equals
p^n.  Each bent Walsh value then lies in {u * P_n * e^c} with u = +-1,
c in 0..p-1, where P_n is the exact stand-in for p^(n/2):

    n even:  P_n = p^(n/2), a rational integer;
    n odd:   P_n = p^((n-1)/2) * g_p  with g_p the quadratic Gauss sum,
             equal to sqrt(p) (p = 1 mod 4) or i*sqrt(p) (p = 3 mod 4).

The exponent map c is the dual function.  The 2p candidate values are
pairwise distinct, which is asserted per (p, n) rather than assumed, so the
match is unambiguous.  The complex unit in front of p^(n/2) is u when P_n is
real and u*i when P_n is imaginary (odd n, p = 3 mod 4); "regular" requires
that unit to be literally 1, hence u = +1 and a real P_n.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cyclo import CycInt, gauss_sum, legendre, root_power
from .pfunc import Domain, PFunction
from .walsh import WalshSpectrum, _row_elements, rotate_rows, walsh_fast

NOT_BENT = "not_bent"
REGULAR = "regular"
WEAKLY_REGULAR = "weakly_regular_not_regular"
NON_WEAKLY_REGULAR = "non_weakly_regular"


class DualExtractionError(RuntimeError):
    """A spectral value of a bent function failed to match any candidate.

    This signals an arithmetic bug somewhere, never bad user input, so it is
    kept separate from ValueError.
    """


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


def _unit_is_imaginary(p: int, n: int) -> bool:
    return n % 2 == 1 and p % 4 == 3


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per canonical coefficient row, equal iff the rows are."""
    return _row_elements(np.ascontiguousarray(rows, dtype=np.int64))


@lru_cache(maxsize=None)
def _candidate_table(p: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 2p possible bent Walsh values as sorted row keys, with the unit u
    and the exponent c of each: value = u * P_n * e^c."""
    base = bent_normalizer(p, n)
    units = np.repeat(np.array([1, -1], dtype=np.int64), p)
    exps = np.tile(np.arange(p, dtype=np.int64), 2)
    rows = [(base * root_power(p, int(c)) * int(u)).coeffs for u, c in zip(units, exps)]
    keys = _row_keys(np.array(rows))
    order = np.argsort(keys)
    table = (keys[order], units[order], exps[order])
    if np.any(table[0][1:] == table[0][:-1]):
        raise DualExtractionError(
            f"bent value candidates collide for p={p}, n={n} (internal error)"
        )
    for arr in table:
        arr.flags.writeable = False  # shared by every caller through the cache
    return table


def is_bent(W: WalshSpectrum) -> Verdict:
    """True when |W(b)|^2 = p^n exactly for every b; witness is the first failure."""
    p, n = W.domain.p, W.domain.n_total
    target = np.zeros(p - 1, dtype=np.int64)
    target[0] = p**n
    eq = W.abs_sq_rows() == target
    if eq.all():
        return Verdict(True)
    return Verdict(False, int(np.argmin(eq.all(axis=1))))


def extract_dual(W: WalshSpectrum) -> tuple[PFunction, np.ndarray]:
    """Recover (dual function, per-b unit map u) from a bent spectrum.

    Every W(b) must equal u(b) * P_n * e^(dual(b)); a non-matching value
    aborts with DualExtractionError.
    """
    dom = W.domain
    keys, units, exps = _candidate_table(dom.p, dom.n_total)
    row_keys = _row_keys(W.values)
    pos = np.minimum(np.searchsorted(keys, row_keys), keys.size - 1)
    hit = keys[pos] == row_keys
    if not hit.all():
        b = int(np.argmin(hit))
        raise DualExtractionError(
            f"spectral value at b={b} matches no bent candidate (internal error)"
        )
    return PFunction(dom, exps[pos]), units[pos]


def _zeta_str(u: int, imaginary: bool) -> str:
    if imaginary:
        return "+i" if u == 1 else "-i"
    return "+1" if u == 1 else "-1"


@dataclass
class ClassReport:
    """Everything classify() learned about one function."""

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

    def to_json(self) -> dict:
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
        out["spectrum_histogram"] = self.spectrum.histogram_json()
        return out


def classify(f: PFunction, spectrum: WalshSpectrum | None = None) -> ClassReport:
    """Full classification: bent or not, regularity class, dual, dual bentness.

    Witnesses record the smallest index b proving each negative verdict.
    """
    W = spectrum if spectrum is not None else walsh_fast(f)
    dom = f.domain
    bent = is_bent(W)
    if not bent:
        report = ClassReport(
            p=dom.p, domain=dom, is_bent=False, regularity=NOT_BENT, spectrum=W
        )
        report.witnesses["not_bent_at"] = bent.witness
        return report

    dual, units = extract_dual(W)
    imaginary = _unit_is_imaginary(dom.p, dom.n_total)
    report = ClassReport(
        p=dom.p, domain=dom, is_bent=True, regularity="", spectrum=W,
        dual=dual, unit_map=units,
    )
    if np.all(units == units[0]):
        u = int(units[0])
        report.constant_unit = u
        report.zeta = _zeta_str(u, imaginary)
        report.regularity = REGULAR if (u == 1 and not imaginary) else WEAKLY_REGULAR
    else:
        report.regularity = NON_WEAKLY_REGULAR
        report.witnesses["unit_mismatch_at"] = int(np.argmax(units != units[0]))

    dual_verdict = is_bent(walsh_fast(dual))
    report.dual_is_bent = bool(dual_verdict)
    if not dual_verdict:
        report.witnesses["dual_not_bent_at"] = dual_verdict.witness
    return report


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
