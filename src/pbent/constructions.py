"""Bent-function constructions: quadratic monomials, Coulter-Matthews maps,
direct and semi-direct sums, the two-variable quadratic-form family with its
character condition sum, a selector-variable recursion, and three bundled
ternary examples (g1, g2, g3).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from .bent import (
    NON_WEAKLY_REGULAR, DualExtractionError, Verdict, _match, classify, extract_dual, match_rows,
)
from .cyclo import CycInt
from .field import FieldCtx, FieldElement, _rank_mod_p
from .pfunc import Domain, PFunction, VecPart, from_expr
from .walsh import (
    _abs_sq, _dft, _root_rows, int_rows, mul_rows, rotate_rows, walsh_fast, walsh_stack,
)


class ConstructionError(ValueError):
    pass


def _as_element(ctx: FieldCtx, a) -> FieldElement:
    if isinstance(a, FieldElement):
        if a.ctx != ctx:
            raise ConstructionError("element belongs to a different field")
        return a
    return ctx.element(int(a))


# ---- quadratic families -------------------------------------------------------

def _nonzero_coefficient(ctx: FieldCtx, alpha) -> FieldElement:
    alpha = _as_element(ctx, alpha)
    if alpha.index == 0:
        raise ConstructionError("the coefficient must be nonzero")
    return alpha


def monomial_bent(ctx: FieldCtx, alpha, k: int) -> PFunction:
    """Tr(alpha * x^(p^k + 1)); bent exactly when m / gcd(m, k) is odd."""
    alpha = _nonzero_coefficient(ctx, alpha)
    if not 0 <= k <= ctx.m:
        raise ConstructionError(f"k must lie in 0..{ctx.m}, got {k}")
    if (ctx.m // gcd(ctx.m, k)) % 2 == 0:
        raise ConstructionError(
            f"m/gcd(m,k) = {ctx.m // gcd(ctx.m, k)} is even, the monomial is not bent"
        )
    return _trace_monomial(ctx, alpha, ctx.p**k + 1)


def cm_bent(ctx: FieldCtx, alpha, k: int) -> PFunction:
    """Ternary Coulter-Matthews function Tr(alpha * x^((3^k + 1)/2)), gcd(2m, k) = 1."""
    if ctx.p != 3:
        raise ConstructionError("this family only exists in characteristic 3")
    alpha = _nonzero_coefficient(ctx, alpha)
    if k < 1 or gcd(2 * ctx.m, k) != 1:
        raise ConstructionError(f"need gcd(2m, k) = 1 with k >= 1, got k={k}")
    return _trace_monomial(ctx, alpha, (3**k + 1) // 2)


def _trace_monomial(ctx: FieldCtx, alpha: FieldElement, expo: int) -> PFunction:
    return PFunction(Domain.field(ctx), ctx.trace_term(alpha.index, expo))


# ---- sums ----------------------------------------------------------------------

def direct_sum(f: PFunction, g: PFunction) -> PFunction:
    """(x, y) -> f(x) + g(y) on the product domain."""
    if f.p != g.p:
        raise ConstructionError("mismatched characteristic")
    dom = Domain(f.domain.components + g.domain.components)
    table = (np.add.outer(g.table, f.table) % f.p).reshape(-1)
    return PFunction(dom, table)


@dataclass
class SdsSpec:
    """Data of a semi-direct sum F(x, y) = f(x) + g(y + h(x)).

    f lives on any domain, g on the vector space F_p^n, and h is a list of n
    coordinate maps on f's domain.  This is the one place that validates a
    semi-direct sum, g's bentness last; it keeps g_spectrum and g_dual.
    """

    f: PFunction
    g: PFunction
    h: list[PFunction]

    def __post_init__(self) -> None:
        gdom = self.g.domain
        if len(gdom.components) != 1 or not isinstance(gdom.components[0], VecPart):
            raise ConstructionError("g must live on a single vector component")
        self.n = gdom.components[0].dim
        if len(self.h) != self.n:
            raise ConstructionError(f"need {self.n} coordinate maps, got {len(self.h)}")
        if any(hj.domain != self.f.domain for hj in self.h):
            raise ConstructionError("every coordinate map must live on f's domain")
        if self.g.p != self.f.p:
            raise ConstructionError("mismatched characteristic")
        self.g_spectrum = walsh_fast(self.g)
        try:
            self.g_dual, _ = extract_dual(self.g_spectrum)
        except DualExtractionError:
            raise ConstructionError("the outer function g must be bent") from None

    def slices(self) -> np.ndarray:
        """G_b(x) = f(x) + <b, h(x)> for every b in F_p^n as a [b, x] stack,
        the functions whose bentness drives the sum, in one broadcast."""
        hvals = np.stack([hj.table for hj in self.h])  # (n, |f's domain|)
        return (self.f.table + self.g.domain.digits_matrix() @ hvals) % self.f.p


def semi_direct_sum(spec: SdsSpec) -> PFunction:
    """F(x, y) = f(x) + g(y + h(x)) on f's domain extended by g's."""
    p = spec.f.p
    ydig = spec.g.domain.digits_matrix()  # (p^n, n)
    hvals = np.stack([hj.table for hj in spec.h], axis=1)  # (|f's domain|, n)
    # shifted[y, x] = index of y + h(x) inside g's domain
    shifted = ((ydig[:, None, :] + hvals[None, :, :]) % p) @ (p ** np.arange(spec.n))
    table = (spec.f.table + spec.g.table[shifted]) % p  # y-major: index x + y*|f's domain|
    return PFunction(spec.f.domain.extend(*spec.g.domain.components), table.reshape(-1))


def _slice_match(spec: SdsSpec, duals: bool) -> tuple[tuple, int | None]:
    """_match of the stacked spectra of every G_b, and the first b whose G_b
    is not bent (None when all are)."""
    fdom = spec.f.domain
    found = _match(walsh_stack(fdom, spec.slices()), fdom.p, fdom.n_total, duals)
    bad = np.flatnonzero(found[0] >= 0)
    return found, int(bad[0]) if bad.size else None


def sds_is_bent_condition(spec: SdsSpec) -> Verdict:
    """The exact bentness criterion: every G_b must be bent; witness = first bad b."""
    b = _slice_match(spec, duals=False)[1]
    return Verdict(b is None, b)


def sds_walsh_factorization(spec: SdsSpec) -> bool:
    """Exact spectral splitting W_F(a, b) = W_{G_b}(a) * W_g(b) for all (a, b),
    from one stack of the G_b's spectra."""
    WF = walsh_fast(semi_direct_sum(spec))
    p, nf = spec.f.p, spec.f.domain.size
    slices = int_rows(walsh_stack(spec.f.domain, spec.slices()).reshape(-1, p - 1))
    g_rows = np.repeat(spec.g_spectrum.values, nf, axis=0)  # W_g(b) at row (b, a)
    return np.array_equal(WF.values, mul_rows(slices, p, g_rows))


def sds_dual(spec: SdsSpec) -> PFunction:
    """Dual of a bent semi-direct sum: F*(x, y) = G_y*(x) + g*(y)."""
    (not_bent_at, duals, _, _), b = _slice_match(spec, duals=True)
    if b is not None:
        raise ConstructionError(f"function is not bent (witness b={not_bent_at[b]})")
    table = duals + spec.g_dual.table[:, None]  # [y, x]
    return PFunction(spec.f.domain.extend(*spec.g.domain.components), table.reshape(-1))


# ---- the correlation family over F_{p^m} x F_p^n --------------------------------

class Cor1Result(NamedTuple):
    function: PFunction
    both_characters: bool
    character_counts: tuple[int, int]  # (+1 count, -1 count) over the Lambda sweep


def cor1_family(
    ctx: FieldCtx, kind: str, k: int, alphas, g: PFunction
) -> Cor1Result:
    """F(x, y) = f_{a0}(x) + g(y + (f_{a1}(x), ..., f_{an}(x))) for one quadratic family.

    kind selects the inner family ('monomial' or 'cm'), alphas = (a0, ..., an)
    must be linearly independent over F_p, and g must be bent on F_p^n.  The
    result records whether the coefficient sweep Lambda = a0 + sum(lambda_j a_j)
    hits both quadratic characters; if it does not, the sum stays weakly regular.
    """
    alphas = [_as_element(ctx, a) for a in alphas]
    n = len(alphas) - 1
    if n < 1:
        raise ConstructionError("need at least two coefficients")
    if _rank_mod_p([a.coeffs for a in alphas], ctx.p) != n + 1:
        raise ConstructionError("the coefficients must be linearly independent over F_p")
    if kind == "monomial":
        family = lambda a: monomial_bent(ctx, a, k)
    elif kind == "cm":
        family = lambda a: cm_bent(ctx, a, k)
    else:
        raise ConstructionError(f"unknown family kind {kind!r}")
    spec = SdsSpec(f=family(alphas[0]), g=g, h=[family(a) for a in alphas[1:]])
    F = semi_direct_sum(spec)

    eta = _lambda_eta(ctx, alphas[0].index, [a.index for a in alphas[1:]])
    plus = int((eta == 1).sum())
    minus = eta.size - plus
    return Cor1Result(F, plus > 0 and minus > 0, (plus, minus))


# ---- the planted non-dual-bent family -------------------------------------------

@dataclass
class NdCorSpec:
    """Parameters (alpha, beta) of the two-coordinate quadratic-form sum.

    Requires {1, alpha, beta} linearly independent over F_p, which needs
    m >= 3.
    """

    ctx: FieldCtx
    alpha: FieldElement
    beta: FieldElement

    def __post_init__(self) -> None:
        self.alpha = _as_element(self.ctx, self.alpha)
        self.beta = _as_element(self.ctx, self.beta)
        if not _independent(self.ctx, self.alpha.index, self.beta.index):
            raise ConstructionError(
                "{1, alpha, beta} must be linearly independent over F_p"
            )


def _independent(ctx: FieldCtx, a, b) -> np.ndarray:
    """Whether {1, alpha, beta} is linearly independent over F_p, elementwise
    over index arrays: alpha is not in F_p (index >= p), and beta is not in
    F_p + F_p*alpha, i.e. beta - beta % p is no c*alpha - (c*alpha) % p."""
    p = ctx.p
    a = np.asarray(a, dtype=np.int64)
    multiples = ctx.mul_indices(np.arange(p).reshape((p,) + (1,) * a.ndim), a)  # [c, ...]
    in_span = (multiples - multiples % p == b - b % p).any(axis=0)
    return (a >= p) & ~in_span


def _lambda_eta(ctx: FieldCtx, base, coeffs) -> np.ndarray:
    """eta(base + sum_j lambda_j * a_j) for every lambda in F_p^n, for element
    indices base and a_j in coeffs (scalars or arrays over pairs), independent
    over F_p; row lambda = lambda_1 + p*lambda_2 + ... holds one column per pair.
    Terms are added in logs, log(x + y) = log x + zech[log y - log x]; q - 1 is
    even, so eta = (-1)^log is the parity of the unreduced log."""
    p, n = ctx.p, ctx.q - 1
    pairs = np.broadcast_shapes(np.shape(base), *map(np.shape, coeffs)) or (1,)
    acc = np.full((1,) + pairs, ctx.log[base], dtype=np.int64)  # [lambda, pair]
    for a in coeffs:
        # log(lambda_j * a) - acc in int64 (field's docstring), as
        # [lambda_j - 1, lambda, pair]: lambda_j != 0
        y = ctx.log[a] - acc + ctx.log[1:p, None, None]
        acc = np.concatenate([acc[None], acc + ctx.zech[y % n]]).reshape(-1, *pairs)
    # % 2, not & 1, whose int64 loop no other search code runs
    return 1 - 2 * (acc % 2)


def _pair_rows(ctx: FieldCtx, alphas, betas) -> tuple[np.ndarray, np.ndarray]:
    """eta(Lambda_b), Lambda_b = 1 + b1*alpha + b2*beta, as [b, pair], and the
    float64 canonical rows of eta(Lambda_b) * e^(-b1*b2) as [pair, b, coeff],
    for b = b1 + p*b2 in F_p^2 and the pairs of index lists alphas, betas."""
    p = ctx.p
    eta = _lambda_eta(ctx, 1, [alphas, betas])
    j = np.arange(p * p)
    return eta, eta.T[:, :, None] * _root_rows(-(j % p) * (j // p), p)


def ndcor_condition_sum(spec: NdCorSpec) -> CycInt:
    """S = sum over y1, y2 in F_p of eta(1 + y1*alpha + y2*beta) * e^(-y1*y2).

    The three-term independence makes every argument nonzero.  |S| != p is the
    exact certificate that the constructed sum has a non-bent dual.  S is
    T(0) of evaluate_pairs: the plain sum of its rows.
    """
    _, rows = _pair_rows(spec.ctx, [spec.alpha.index], [spec.beta.index])
    return CycInt(spec.ctx.p, rows.sum(axis=(0, 1)))


def ndcor_function(spec: NdCorSpec) -> PFunction:
    """F(x, y1, y2) = Tr(x^2) + (y1 + Tr(alpha x^2)) * (y2 + Tr(beta x^2)).

    This is cor1_family's monomial case with k = 0, coefficients
    (1, alpha, beta) and g = y1*y2 (Cesmelioglu, McGuire and Meidl, JCTA
    119, 2012), built as that semi-direct sum: spec has checked the
    independence, and no character sweep is needed.
    """
    ctx = spec.ctx
    f, ha, hb = (_trace_monomial(ctx, a, 2) for a in (ctx.one, spec.alpha, spec.beta))
    return semi_direct_sum(SdsSpec(f=f, g=coordinate_product(ctx.p), h=[ha, hb]))


def coordinate_product(p: int) -> PFunction:
    """(y1, y2) -> y1 * y2 on F_p^2, the standard two-dimensional bent function."""
    dom = Domain.vec(p, 2)
    idx = np.arange(dom.size, dtype=np.int64)
    return PFunction(dom, ((idx % p) * (idx // p)) % p)


# ---- selector-variable recursion -------------------------------------------------

def _selector_grid(f_list: list[PFunction]) -> tuple[np.ndarray, np.ndarray, Domain]:
    """The p tables, checked to share one plain vector domain F_p^n, as
    [j, x]; s*y on F_p^(n+2)'s [y, s, x] grid; and F_p^(n+2)."""
    if not f_list:
        raise ConstructionError("need p functions")
    base = f_list[0].domain
    p = base.p
    if len(f_list) != p:
        raise ConstructionError(f"need exactly p = {p} functions, got {len(f_list)}")
    if len(base.components) != 1 or not isinstance(base.components[0], VecPart):
        raise ConstructionError("inputs must live on a plain vector domain")
    if any(fj.domain != base for fj in f_list):
        raise ConstructionError("all inputs must share one domain")
    sy = np.outer(np.arange(p), np.arange(p))[:, :, None]
    return np.stack([fj.table for fj in f_list]), sy, Domain.vec(p, base.n_total + 2)


def agw_combine(f_list: list[PFunction]) -> PFunction:
    """F(x, s, y) = f_y(x) + s*y on F_p^(n+2), selecting among p functions by y.

    Every f_j must live on one common plain vector domain F_p^n; F is bent
    exactly when all the f_j are.
    """
    tables, sy, dom = _selector_grid(f_list)
    return PFunction(dom, ((tables[:, None] + sy) % dom.p).reshape(-1))


def agw_dual(fstar_list: list[PFunction]) -> PFunction:
    """The dual's shape under this recursion: F*(x, s, y) = f*_s(x) - s*y."""
    tables, sy, dom = _selector_grid(fstar_list)
    return PFunction(dom, ((tables[None] - sy) % dom.p).reshape(-1))


def agw_walsh_identity(f_list: list[PFunction]) -> bool:
    """Exact spectral identity W_F(a, b, c) = p * e^(-b*c) * W_{f_b}(a), from
    one stack of the p spectra."""
    tables, sy, dom = _selector_grid(f_list)
    p = dom.p
    spectra = int_rows(walsh_stack(f_list[0].domain, tables))  # [b, a]
    expected = np.broadcast_to(spectra, (p,) + spectra.shape).reshape(-1, p - 1)  # [c, b, a]
    phase = np.repeat(-sy.reshape(-1), tables.shape[1])  # -c*b
    WF = walsh_fast(agw_combine(f_list))
    return np.array_equal(WF.values, p * rotate_rows(expected, p, phase))


# ---- bundled ternary examples ------------------------------------------------------

# Each example's degree m over F_3 and its expressions, one per variant, in
# from_expr's grammar, where g is the context's primitive element xi.
_SPORADIC: dict[str, tuple[int, tuple[str, ...]]] = {
    "g1": (6, ("Tr(g^7 x^98)",)),
    "g2": (4, tuple(f"Tr({a0} x^22) + Tr(x^4)" for a0 in ("g^10", "-g^10", "g^30", "-g^30"))),
    "g3": (6, ("Tr(g^7 x^14) + Tr(g^35 x^70)",)),
}


def sporadic(name: str, ctx: FieldCtx, variant: int | None = None) -> PFunction:
    """The bundled ternary examples g1, g2, g3.

    g1 = Tr(xi^7 x^98) and g3 = Tr(xi^7 x^14 + xi^35 x^70) on F_{3^6}
    (modulus supplied by the caller), g2 = Tr(a0 x^22 + x^4) on F_{3^4} with
    a0 one of +-xi^10, +-xi^30 chosen by variant 0..3.  xi is the context's
    primitive element; g1 and g3 take no variant.
    """
    if ctx.p != 3:
        raise ConstructionError("the bundled examples live in characteristic 3")
    if name not in _SPORADIC:
        raise ConstructionError(f"unknown example {name!r}")
    m, exprs = _SPORADIC[name]
    if ctx.m != m:
        raise ConstructionError(f"{name} needs F_{{3^{m}}}")
    if len(exprs) == 1:
        if variant is not None:
            raise ConstructionError(f"{name} has no variants")
        variant = 0
    elif variant is None or not 0 <= variant < len(exprs):
        raise ConstructionError(f"{name} needs a variant in 0..{len(exprs) - 1}")
    return from_expr(ctx, exprs[variant])


# ---- search over (alpha, beta) pairs ----------------------------------------------

def pair_count(ctx: FieldCtx) -> int:
    """Length of the scan's pair list: q - p alphas, q - p^2 betas each."""
    return (ctx.q - ctx.p) * (ctx.q - ctx.p**2)


def pair_slice(ctx: FieldCtx, start: int, stop: int) -> np.ndarray:
    """Pairs start..stop of the scan's pair list as an [n, 2] index array.

    The list holds every (alpha, beta) with {1, alpha, beta} independent, in
    lexicographic index order: each alpha outside F_p (index >= p) has the
    q - p^2 betas outside span{1, alpha}, so pair k has alpha = p + k // (q - p^2).
    Like a slice, stop is clamped to the list's pair_count(ctx) pairs.
    """
    p, q = ctx.p, ctx.q
    per_alpha = q - p * p
    stop = min(stop, pair_count(ctx))
    first = start // per_alpha
    alphas = np.arange(p + first, p - (-stop // per_alpha), dtype=np.int64)[:, None]
    rows, betas = np.nonzero(_independent(ctx, alphas, np.arange(q, dtype=np.int64)))
    lo = start - first * per_alpha
    return np.column_stack((alphas[rows, 0], betas))[lo : lo + stop - start]


def _pair_record(
    ctx: FieldCtx, a_idx: int, b_idx: int, s2: list[int],
    bent: bool, regularity: str, dual_bent: bool,
) -> dict:
    """The JSON-ready search record from the canonical coefficients s2 of
    |S|^2; 'abs_sq_S' is an int when they are rational, otherwise the list."""
    return {
        "p": ctx.p,
        "m": ctx.m,
        "modulus": list(ctx.modulus),
        "alpha": a_idx,
        "alpha_poly": ctx.element(a_idx).poly_str(),
        "beta": b_idx,
        "beta_poly": ctx.element(b_idx).poly_str(),
        "abs_sq_S": s2 if any(s2[1:]) else s2[0],
        "bent": bent,
        "regularity": regularity,
        "dual_bent": dual_bent,
    }


def evaluate_pair(ctx: FieldCtx, a_idx: int, b_idx: int) -> dict:
    """Condition sum plus full classification (one transform, and a second for
    a non-weakly-regular F) for one (alpha, beta) pair: the oracle for
    evaluate_pairs and pair_lines."""
    spec = NdCorSpec(ctx, ctx.element(a_idx), ctx.element(b_idx))
    rep = classify(ndcor_function(spec))
    return _pair_record(
        ctx, a_idx, b_idx, list(ndcor_condition_sum(spec).abs_sq().coeffs),
        rep.is_bent, rep.regularity, rep.dual_is_bent,
    )


@lru_cache(maxsize=4)
def _square_trace_regularity(ctx: FieldCtx) -> str:
    """Regularity of Tr(x^2) on the field, which F has when eta is constant."""
    return classify(monomial_bent(ctx, ctx.one, 0)).regularity


# Pairs per search task: one _pair_verdicts call and one write.  A serial F_81
# scan peaks at 0.61 MB under tracemalloc and 31.8 MiB RSS with these tasks,
# against 0.82 MB and 32.3 MiB at 2^10 pairs.
_TASK_PAIRS = 1 << 9
# Coefficient entries per block of evaluate_pairs, where a pair's rows hold
# p^2 (p - 1) of them: the entries of one p = 3 task, so that task is one block.
_BLOCK_BUDGET = _TASK_PAIRS * 3**2 * 2


class PairVerdicts(NamedTuple):
    """evaluate_pairs' verdicts, one entry per pair (F is always bent)."""

    abs_sq_S: np.ndarray  # [pair, p - 1] canonical coefficients of |S|^2 = |T(0)|^2
    mixed: np.ndarray  # eta(Lambda_b) takes both signs: F is non-weakly regular
    dual_bent: np.ndarray

    def take(self, idx) -> "PairVerdicts":
        return PairVerdicts(*(column[idx] for column in self))


def evaluate_pairs(ctx: FieldCtx, pairs) -> PairVerdicts:
    """Closed-form verdicts for (alpha, beta) index pairs, the ones
    evaluate_pair(ctx, a, b) reaches by classification, with no transform of F.

    F = Tr(x^2) + (y1 + Tr(alpha x^2)) * (y2 + Tr(beta x^2)) is the
    semi-direct sum f(x) + g(y + h(x)) with f = Tr(x^2), g = y1*y2 and
    h = (Tr(alpha x^2), Tr(beta x^2)), so W_F(a, b) = W_{G_b}(a) * W_g(b) with
    G_b = Tr(Lambda_b x^2), Lambda_b = 1 + b1*alpha + b2*beta, never 0 by the
    independence.  Both factors are quadratic Gauss sums (Helleseth-Kholosha,
    IEEE T-IT 2006); with G_m = W_{Tr(x^2)}(0) on F_{p^m}:

        W_F(a, b) = eta(Lambda_b) * G_m * p * e^(-Tr(a^2 / (4 Lambda_b)) - b1*b2).

    So F is bent, its unit at (a, b) is eta(Lambda_b) times the unit of
    Tr(x^2), and F*(a, b) = -Tr(a^2 / (4 Lambda_b)) - b1*b2.  Completing the
    square in the dual's transform gives

        W_{F*}(u, v) = eta(-1) * G_m * e^(Tr(u^2)) * T(w),
        T(w) = sum_{b in F_p^2} eta(Lambda_b) * e^(-b1*b2 + w.b),

    with w = (Tr(alpha u^2) - v1, Tr(beta u^2) - v2); as v runs over F_p^2
    so does w, and |G_m|^2 = p^m.  Hence:

    * F is non-weakly regular iff eta(Lambda_b) takes both signs.  Otherwise
      eta is +1 throughout (b = 0 gives Lambda = 1), F's unit is that of
      Tr(x^2) on F_{p^m} (P_{m+2} = p * P_m), and so is its regularity;
    * the dual is bent iff |T(w)|^2 = p^2, i.e. T(w) = +-p*e^c, for every w;
    * the paper's S is T(0), and 'abs_sq_S' is |T(0)|^2.

    Each block's rows eta(Lambda_b) * e^(-b1*b2) go through the Walsh core:
    the DFT of sign +1 over the two low row digits, b, turns row
    pair*p^2 + b into T(w) at row pair*p^2 + w, in place, and |.|^2 squares
    the T(0) rows; both assert their exactness bounds.  Pairs run in blocks
    of at most _BLOCK_BUDGET entries, so memory stays bounded.
    """
    # F's own domain; a field too large for it is refused as classify would
    Domain.field(ctx).extend(VecPart(ctx.p, 2))
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if not _independent(ctx, *pairs.T).all():
        raise ConstructionError("{1, alpha, beta} must be linearly independent over F_p")
    return _pair_verdicts(ctx, pairs)


def _pair_verdicts(ctx: FieldCtx, pairs: np.ndarray) -> PairVerdicts:
    """evaluate_pairs without its checks, for pair_slice's [n, 2] pairs, which
    are independent by construction, in a field the search has sized."""
    p = ctx.p
    out = PairVerdicts(
        np.empty((len(pairs), p - 1), dtype=np.int64),
        np.empty(len(pairs), dtype=bool),
        np.empty(len(pairs), dtype=bool),
    )
    rows = max(1, _BLOCK_BUDGET // (p * p * (p - 1)))
    for r0 in range(0, len(pairs), rows):
        a, b = pairs[r0 : r0 + rows].T
        eta, phased = _pair_rows(ctx, a, b)
        T = _dft(phased.reshape(-1, p - 1), p, 2, +1)  # row pair*p^2 + w: T(w)
        block = slice(r0, r0 + len(a))
        out.abs_sq_S[block] = _abs_sq(T[:: p * p], p)
        out.mixed[block] = (eta != eta[:1]).any(axis=0)
        out.dual_bent[block] = match_rows(T, p, 2)[1].reshape(len(a), p * p).all(axis=1)
    return out


@lru_cache(maxsize=4)
def _line_parts(ctx: FieldCtx) -> tuple[str, dict[int, str]]:
    """The field's fixed text of a search line, from "m" to the regularity's
    key, and the JSON polynomial strings by element index, each filled on
    first use."""
    modulus = json.dumps(list(ctx.modulus))
    return f'"m": {ctx.m}, "modulus": {modulus}, "p": {ctx.p}, "regularity": ', {}


def pair_lines(
    ctx: FieldCtx, pairs: np.ndarray, verdicts: PairVerdicts, runtime_ms: float | None = None
) -> str:
    """The pairs' search records as JSON lines from a per-field template:
    line k is json.dumps(evaluate_pair(ctx, *pairs[k]), sort_keys=True) with
    'runtime_ms' added when given, with no dict or json.dumps per record."""
    fixed, polys = _line_parts(ctx)
    alphas, betas = pairs.T.tolist()
    for idx in set(alphas).union(betas).difference(polys):
        polys[idx] = json.dumps(ctx.element(idx).poly_str())
    rational = ~verdicts.abs_sq_S[:, 1:].any(axis=1)
    regular = json.dumps(_square_trace_regularity(ctx)) if not verdicts.mixed.all() else None
    regs = {True: json.dumps(NON_WEAKLY_REGULAR), False: regular}
    end = "}\n" if runtime_ms is None else f', "runtime_ms": {runtime_ms!r}}}\n'
    return "".join(
        f'{{"abs_sq_S": {s2[0] if rat else s2}, "alpha": {a}, "alpha_poly": {polys[a]}, '
        f'"bent": true, "beta": {b}, "beta_poly": {polys[b]}, '
        f'"dual_bent": {"true" if dual else "false"}, {fixed}{regs[mixed]}{end}'
        for a, b, s2, rat, mixed, dual in zip(
            alphas, betas, verdicts.abs_sq_S.tolist(), rational.tolist(),
            verdicts.mixed.tolist(), verdicts.dual_bent.tolist(),
        )
    )
