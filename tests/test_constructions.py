"""Construction machinery: sums, the two-coordinate family, recursion, bundled examples."""
import itertools
import json

import numpy as np
import pytest
from conftest import traced_peak

from pbent.bent import (
    NON_WEAKLY_REGULAR,
    REGULAR,
    WEAKLY_REGULAR,
    classify,
    extract_dual,
    is_bent,
)
from pbent.constructions import (
    ConstructionError,
    _independent,
    _lambda_eta,
    _pair_rows,
    _rank_mod_p,
    NdCorSpec,
    SdsSpec,
    agw_combine,
    agw_dual,
    agw_walsh_identity,
    cm_bent,
    coordinate_product,
    cor1_family,
    direct_sum,
    evaluate_pair,
    evaluate_pairs,
    monomial_bent,
    ndcor_condition_sum,
    ndcor_function,
    pair_count,
    pair_lines,
    pair_slice,
    semi_direct_sum,
    sds_dual,
    sds_is_bent_condition,
    sds_walsh_factorization,
    sporadic,
)
from pbent.cyclo import CycInt, gauss_sum, root_power
from pbent.field import FieldCtx, digit_table, make_field, poly_is_irreducible
from pbent.pfunc import (
    Domain,
    DomainError,
    PFunction,
    VecPart,
    from_expr,
    load_tt,
    parse_coefficient,
    random_function,
    save_tt,
    table_dtype,
    zero_function,
)
from pbent.walsh import _abs_sq, _dft, walsh_fast

F9 = make_field(3, 2, (1, 0, 1))
F27 = make_field(3, 3)
F81 = make_field(3, 4)
F125 = make_field(5, 3)
MOD_3_6 = (2, 1, 0, 0, 0, 0, 1)


def square_map(p: int) -> PFunction:
    """y -> y^2 on F_p, the one-dimensional bent function."""
    return PFunction(Domain.vec(p, 1), [(y * y) % p for y in range(p)])


# ---- quadratic family validation -----------------------------------------------------


def test_monomial_validation():
    with pytest.raises(ConstructionError):
        monomial_bent(F27, 0, 0)  # zero coefficient
    with pytest.raises(ConstructionError):
        monomial_bent(F27, 1, 4)  # k out of range
    with pytest.raises(ConstructionError):
        monomial_bent(F81, 1, 2)  # m/gcd(m,k) = 2 even
    with pytest.raises(ConstructionError):
        monomial_bent(F27, F81.one, 0)  # element from another field
    f = monomial_bent(F27, 1, 0)
    assert list(f.table) == list(from_expr(F27, "Tr(x^2)").table)


def test_cm_validation():
    with pytest.raises(ConstructionError):
        cm_bent(F125, 1, 1)  # wrong characteristic
    with pytest.raises(ConstructionError):
        cm_bent(F27, 0, 1)  # zero coefficient
    with pytest.raises(ConstructionError):
        cm_bent(F27, 1, 0)  # k must be >= 1
    with pytest.raises(ConstructionError):
        cm_bent(F27, 1, 2)  # gcd(6, 2) != 1
    f = cm_bent(F27, 1, 1)  # (3 + 1)/2 = 2: reduces to the quadratic
    assert list(f.table) == list(from_expr(F27, "Tr(x^2)").table)
    g = cm_bent(F27, 1, 5)
    assert classify(g).is_bent


# ---- direct sums ---------------------------------------------------------------------


def test_direct_sum_pointwise():
    f = from_expr(F27, "Tr(x^2)")
    g = coordinate_product(3)
    F = direct_sum(f, g)
    assert F.domain.size == 27 * 9
    for x in range(0, 27, 5):
        for y in range(9):
            assert F(x + 27 * y) == (f(x) + g(y)) % 3


def test_direct_sum_of_bents_is_bent_with_summed_dual():
    f = from_expr(F27, "Tr(x^2)")
    g = coordinate_product(3)
    rf, rg = classify(f), classify(g)
    F = direct_sum(f, g)
    rF = classify(F)
    assert rF.is_bent
    assert rF.regularity in (REGULAR, WEAKLY_REGULAR)
    # units multiply: (-1 on the field part) * (+1 on the plane) = -1
    assert rF.constant_unit == rf.constant_unit * rg.constant_unit == -1
    expected_dual = direct_sum(rf.dual, rg.dual)
    assert np.array_equal(rF.dual.table, expected_dual.table)
    assert rF.dual_is_bent is True


def test_direct_sum_rejects_mixed_characteristic():
    with pytest.raises(ConstructionError):
        direct_sum(from_expr(F27, "Tr(x^2)"), square_map(5))


def test_direct_sum_with_non_bent_part_is_not_bent():
    F = direct_sum(zero_function(Domain.vec(3, 1)), coordinate_product(3))
    assert not classify(F).is_bent


# ---- semi-direct sums: spec validation, the exact criterion, dual, factorization -------


def test_sds_spec_validation(rng):
    f = from_expr(F27, "Tr(x^2)")
    good_g = square_map(3)
    with pytest.raises(ConstructionError):
        SdsSpec(f=f, g=from_expr(F27, "Tr(x^2)"), h=[f])  # g not on a vector domain
    with pytest.raises(ConstructionError):
        SdsSpec(f=f, g=good_g, h=[])  # wrong arity
    with pytest.raises(ConstructionError):
        SdsSpec(f=f, g=good_g, h=[random_function(Domain.vec(3, 3), rng)])  # wrong domain
    with pytest.raises(ConstructionError):
        SdsSpec(f=square_map(5), g=good_g, h=[square_map(5)])  # mixed characteristic
    with pytest.raises(ConstructionError, match="g must be bent"):
        SdsSpec(f=f, g=zero_function(Domain.vec(3, 1)), h=[f])  # g not bent


def test_sds_pointwise_definition(rng):
    f = from_expr(F9, "Tr(x^2)")
    g = coordinate_product(3)
    h = [from_expr(F9, "Tr(wx^2)"), from_expr(F9, "Tr(x^2)")]
    F = semi_direct_sum(SdsSpec(f=f, g=g, h=h))
    for x in range(9):
        for y in range(9):
            y1, y2 = y % 3, y // 3
            z1, z2 = (y1 + h[0](x)) % 3, (y2 + h[1](x)) % 3
            assert F(x + 9 * y) == (f(x) + g(z1 + 3 * z2)) % 3


def test_sds_random_tables_pointwise_oracle(rng):
    base = Domain.field(F9)
    n = 2
    for _ in range(4):
        f = random_function(base, rng)
        h = [random_function(base, rng) for _ in range(n)]
        c0, c1, c2 = (int(c) for c in rng.integers(0, 3, size=3))
        y1, y2 = np.arange(9) % 3, np.arange(9) // 3
        g = PFunction(Domain.vec(3, n), y1 * y2 + c0 + c1 * y1 + c2 * y2)
        out = semi_direct_sum(SdsSpec(f=f, g=g, h=h))
        assert out.domain == base.extend(VecPart(3, n))
        for x in range(base.size):
            for y in range(3**n):
                ydig = [(y // 3**t) % 3 for t in range(n)]
                shifted = sum(((ydig[t] + h[t](x)) % 3) * 3**t for t in range(n))
                assert out(x + y * base.size) == (f(x) + g(shifted)) % 3


def sds_grid(ctx):
    """All h-lists over the quadratic pool, for n = 1 and n = 2."""
    pool = [
        zero_function(Domain.field(ctx)),
        from_expr(ctx, "Tr(x^2)"),
        from_expr(ctx, "Tr(wx^2)"),
        from_expr(ctx, "Tr(w^2x^2)"),
    ]
    f = from_expr(ctx, "Tr(x^2)")
    specs = []
    for h0 in pool:
        specs.append(SdsSpec(f=f, g=square_map(3), h=[h0]))
    for h0 in pool:
        for h1 in pool:
            specs.append(SdsSpec(f=f, g=coordinate_product(3), h=[h0, h1]))
    return specs


@pytest.mark.parametrize("ctx", [F9, F27], ids=["F9", "F27"])
def test_sds_bent_iff_every_shifted_inner_is_bent(ctx):
    verdicts = []
    for spec in sds_grid(ctx):
        cond = sds_is_bent_condition(spec)
        F = semi_direct_sum(spec)
        rep = classify(F)
        assert rep.is_bent == bool(cond), (ctx, [list(h.table[:4]) for h in spec.h])
        verdicts.append(bool(cond))
        if cond:
            dual = sds_dual(spec)
            assert np.array_equal(dual.table, rep.dual.table)
        else:
            assert cond.witness is not None
            digits = [cond.witness // 3**j % 3 for j in range(len(spec.h))]
            inner = spec.f.table + sum(d * hj.table for d, hj in zip(digits, spec.h))
            assert not is_bent(walsh_fast(PFunction(spec.f.domain, inner)))
    # the grid must exercise both branches of the equivalence
    assert any(verdicts) and not all(verdicts)


def test_sds_walsh_factorization_samples():
    for spec in sds_grid(F9)[:8]:
        assert sds_walsh_factorization(spec)


def test_sds_dual_requires_bent():
    f = from_expr(F9, "Tr(x^2)")
    spec = SdsSpec(f=f, g=square_map(3), h=[from_expr(F9, "Tr(x^2)")])
    assert not sds_is_bent_condition(spec)  # b = 2 kills the coefficient
    with pytest.raises(ConstructionError):
        sds_dual(spec)


def test_oversized_sum_is_refused_before_its_table(rng):
    """f on F_3^9 and a bent g on F_3^4 make a 3^13-point sum: SdsSpec
    accepts the parts and the criterion answers on its slices, but
    semi_direct_sum and sds_dual refuse the sum's domain before any table
    of it (semi_direct_sum formed 97 MiB of int64 index and sums first)."""
    y = Domain.vec(3, 4).digits_matrix()
    g = PFunction(Domain.vec(3, 4), y[:, 0] * y[:, 1] + y[:, 2] * y[:, 3])
    fdom = Domain.vec(3, 9)
    spec = SdsSpec(f=random_function(fdom, rng), g=g,
                   h=[random_function(fdom, rng) for _ in range(4)])
    for build in (semi_direct_sum, sds_dual):
        def refused(build=build):
            with pytest.raises(DomainError, match=r"^domain size 3\^13 exceeds the limit 2\^20$"):
                build(spec)

        _, peak = traced_peak(refused)
        assert peak < 1 << 20, build.__name__
    assert "slice_match" not in spec.__dict__  # sds_dual refused before the match
    assert not sds_is_bent_condition(spec)


# ---- the correlation family ----------------------------------------------------------


def test_cor1_validation():
    g1 = square_map(3)
    with pytest.raises(ConstructionError):
        cor1_family(F27, "monomial", 0, [1], g1)  # too few coefficients
    with pytest.raises(ConstructionError):
        cor1_family(F27, "monomial", 0, [1, 2], g1)  # dependent over F_3
    with pytest.raises(ConstructionError):
        cor1_family(F27, "quartic", 0, [1, F27.w], g1)  # unknown family
    with pytest.raises(ConstructionError):
        cor1_family(F27, "monomial", 2, [1, F27.w, F27.w**2], g1)  # wrong arity for g


def test_cor1_mixed_characters_break_weak_regularity():
    res = cor1_family(F27, "monomial", 0, [F27.one, F27.w + 1], square_map(3))
    assert res.both_characters
    assert sum(res.character_counts) == 3
    rep = classify(res.function)
    assert rep.is_bent
    assert rep.regularity == NON_WEAKLY_REGULAR


def test_cor1_constant_character_stays_weakly_regular():
    # element indices 1 and 3 sweep a coset of constant quadratic character
    res = cor1_family(F27, "monomial", 0, [F27.element(1), F27.element(3)], square_map(3))
    assert not res.both_characters
    assert 0 in res.character_counts
    rep = classify(res.function)
    assert rep.is_bent
    assert rep.regularity in (REGULAR, WEAKLY_REGULAR)
    assert rep.dual_is_bent is True


def test_cor1_two_dimensional_outer():
    res = cor1_family(
        F27, "monomial", 0, [F27.one, F27.w, F27.w**2], coordinate_product(3)
    )
    assert sum(res.character_counts) == 9
    rep = classify(res.function)
    assert rep.is_bent
    assert (rep.regularity == NON_WEAKLY_REGULAR) == res.both_characters


def test_cor1_cm_kind():
    res = cor1_family(F27, "cm", 1, [F27.one, F27.w], square_map(3))
    rep = classify(res.function)
    assert rep.is_bent
    assert (rep.regularity == NON_WEAKLY_REGULAR) == res.both_characters


def _outer_bent(n: int) -> PFunction:
    """A bent function on F_3^n: y1^2, y1*y2, or y1^2 + y2*y3."""
    if n == 2:
        return coordinate_product(3)
    dom = Domain.vec(3, n)
    d = dom.digits_matrix()
    return PFunction(dom, (d[:, 0] ** 2 + (d[:, 1] * d[:, 2] if n == 3 else 0)) % 3)


@pytest.mark.parametrize("kind,k", [("monomial", 0), ("cm", 1)])
@pytest.mark.parametrize(
    "ctx,n",
    [(F27, 1), (F27, 2), (F81, 1), (F81, 2), (F81, 3)],  # n + 1 independent needs m > n
    ids=["F27-n1", "F27-n2", "F81-n1", "F81-n2", "F81-n3"],
)
def test_cor1_character_counts_match_scalar_sweep(ctx, n, kind, k, rng):
    """(plus, minus) against eta of a0 + sum(lambda_j a_j) in field arithmetic."""
    for _ in range(3):
        while True:
            alphas = [ctx.element(int(i)) for i in rng.integers(1, ctx.q, size=n + 1)]
            if _rank_mod_p([a.coeffs for a in alphas], ctx.p) == n + 1:
                break
        plus = minus = 0
        for lam in itertools.product(range(ctx.p), repeat=n):
            acc = alphas[0]
            for lj, aj in zip(lam, alphas[1:]):
                acc = acc + lj * aj
            plus += acc.eta() == 1
            minus += acc.eta() == -1
        res = cor1_family(ctx, kind, k, alphas, _outer_bent(n))
        assert res.character_counts == (plus, minus)
        assert res.both_characters == (plus > 0 and minus > 0)


def digit_sum_lambda_eta(ctx, base, coeffs):
    """eta(base + sum_j lambda_j * a_j) by digit-vector sums over the q x m
    digit table, with eta by Euler's criterion: the oracle for _lambda_eta's
    Zech-logarithm gathers and its log-parity eta."""
    p = ctx.p
    digits = digit_table(p, ctx.m)
    lam = np.arange(p ** len(coeffs), dtype=np.int64)[:, None, None]
    acc = digits[np.asarray(base)]
    for j, a in enumerate(coeffs):
        acc = acc + ((lam // p**j) % p) * digits[np.asarray(a)]
    power = ctx.pow_indices((acc % p) @ (p ** np.arange(ctx.m, dtype=np.int64)), (ctx.q - 1) // 2)
    return np.where(power == 1, 1, -1)


def _random_independent(ctx, n, rng):
    """n + 1 element indices independent over F_p, drawn as the cor1 sweep test draws them."""
    while True:
        alphas = [int(i) for i in rng.integers(1, ctx.q, size=n + 1)]
        if _rank_mod_p([ctx.digits_of(a) for a in alphas], ctx.p) == n + 1:
            return alphas


@pytest.mark.parametrize(
    "ctx,k",
    [
        (F27, None),
        (F81, None),
        (make_field(7, 3, (1, 0, 1, 1)), 3000),
        (make_field(3, 7, (1, 0, 0, 0, 0, 1, 2, 1)), 3000),
    ],
    ids=["F27", "F81", "F343", "F2187"],
)
def test_lambda_eta_matches_digit_sums_on_pairs(ctx, k, rng):
    """The search's eta(1 + b1*alpha + b2*beta) on every pair of F_27 and F_81
    and on k seeded pairs of F_343 and F_2187, with alpha alone and with
    alpha as the base as further shapes."""
    if k is None:
        pairs = pair_slice(ctx, 0, pair_count(ctx))
    else:
        starts = np.unique(rng.integers(0, pair_count(ctx), size=k)).tolist()
        pairs = np.concatenate([pair_slice(ctx, s, s + 1) for s in starts])
    a, b = pairs.T
    for base, coeffs in [(1, [a, b]), (1, [a]), (a, [b]), (a, [1, b])]:
        got = _lambda_eta(ctx, base, coeffs)
        assert got.shape == (ctx.p ** len(coeffs), len(pairs))
        assert np.array_equal(got, digit_sum_lambda_eta(ctx, base, coeffs))


@pytest.mark.parametrize(
    "ctx,n",
    [(F27, 1), (F27, 2), (F81, 1), (F81, 2), (F81, 3)],
    ids=["F27-n1", "F27-n2", "F81-n1", "F81-n2", "F81-n3"],
)
def test_lambda_eta_matches_digit_sums_on_cor1_shapes(ctx, n, rng):
    """cor1_family's sweep shapes: a scalar base and n scalar coefficients."""
    for _ in range(20):
        base, *coeffs = _random_independent(ctx, n, rng)
        got = _lambda_eta(ctx, base, coeffs)
        assert got.shape == (ctx.p**n, 1)
        assert np.array_equal(got, digit_sum_lambda_eta(ctx, base, coeffs))


# ---- the planted two-coordinate family -------------------------------------------------


def test_ndcor_spec_requires_independence():
    with pytest.raises(ConstructionError):
        NdCorSpec(F27, F27.one, F27.w)  # alpha = 1 collapses the span
    with pytest.raises(ConstructionError):
        NdCorSpec(F27, F27.w, 2 * F27.w + 1)  # 1, w, 2w+1 dependent
    with pytest.raises(ConstructionError):
        NdCorSpec(F9, F9.w, F9.w + 1)  # m = 2 can never give rank 3


def test_ndcor_function_shape():
    spec = NdCorSpec(F27, F27.w, F27.w**2)
    F = ndcor_function(spec)
    assert F.domain.size == 27 * 9
    f = from_expr(F27, "Tr(x^2)")
    ha = from_expr(F27, "Tr(wx^2)")
    hb = from_expr(F27, "Tr(w^2x^2)")
    for x in range(0, 27, 4):
        for y in range(9):
            y1, y2 = y % 3, y // 3
            expected = (f(x) + ((y1 + ha(x)) % 3) * ((y2 + hb(x)) % 3)) % 3
            assert F(x + 27 * y) == expected


def _ndcor_pointwise(ctx, a_idx, b_idx):
    """Tr(x^2) + (y1 + Tr(alpha x^2)) * (y2 + Tr(beta x^2)) from field
    arithmetic, at point x + q*(y1 + p*y2)."""
    p, alpha, beta = ctx.p, ctx.element(a_idx), ctx.element(b_idx)
    squares = [ctx.element(i) ** 2 for i in range(ctx.q)]
    f, ha, hb = (np.array([(c * sq).trace() for sq in squares]) for c in (ctx.one, alpha, beta))
    y1, y2 = np.arange(p)[None, :, None], np.arange(p)[:, None, None]
    return ((f + (y1 + ha) * (y2 + hb)) % p).reshape(-1)


@pytest.mark.parametrize("ctx,n", [(F27, None), (F81, 30), (F125, 20)], ids=["F27", "F81", "F125"])
def test_ndcor_function_is_the_planted_cor1_case(ctx, n):
    """ndcor_function against its formula and against cor1_family with
    coefficients (1, alpha, beta), k = 0 and g = y1*y2, which it no longer
    calls: every F_27 pair and seeded F_81 and F_125 pairs."""
    pairs = pair_slice(ctx, 0, pair_count(ctx))
    if n is not None:
        pairs = pairs[np.random.default_rng(ctx.q).choice(len(pairs), n, replace=False)]
    for a, b in pairs.tolist():
        F = ndcor_function(NdCorSpec(ctx, ctx.element(a), ctx.element(b)))
        assert F.domain == Domain.field(ctx).extend(VecPart(ctx.p, 2))
        assert np.array_equal(F.table, _ndcor_pointwise(ctx, a, b)), (a, b)
        alphas = [ctx.one, ctx.element(a), ctx.element(b)]
        assert F == cor1_family(ctx, "monomial", 0, alphas, coordinate_product(ctx.p)).function


REFERENCE_PAIRS = [
    # (field, alpha expr, beta expr, S coefficients, |S|^2 rational or None)
    (F27, "w", "w^2+1", (1, 2), 3),
    (F27, "2w+1", "w^2", (-1, -2), 3),
    (F81, "w", "w^2", (1, 2), 3),
    (F125, "w", "w^2", (3, 4, 6, 2), None),
]


@pytest.mark.parametrize(
    "ctx,sa,sb,coeffs,abs2",
    REFERENCE_PAIRS,
    ids=["f27-a", "f27-b", "f81", "f125"],
)
def test_reference_pair_condition_sums(ctx, sa, sb, coeffs, abs2):
    spec = NdCorSpec(ctx, parse_coefficient(ctx, sa), parse_coefficient(ctx, sb))
    S = ndcor_condition_sum(spec)
    assert S.coeffs == coeffs
    s2 = S.abs_sq()
    if abs2 is not None:
        assert s2.is_rational and s2.as_int() == abs2
    else:
        assert not s2.is_rational
    # |S| != p in every bundled case, certifying the non-bent dual
    assert s2 != CycInt.from_int(ctx.p, ctx.p**2)
    rep = classify(ndcor_function(spec))
    assert rep.is_bent
    assert rep.regularity == NON_WEAKLY_REGULAR
    assert rep.dual_is_bent is False


@pytest.mark.parametrize(
    "ctx,sa,sb,sign",
    [(F27, "w", "w^2+1", 1), (F27, "2w+1", "w^2", 1), (F81, "w", "w^2", -1), (F125, "w", "w^2", 1)],
    ids=["f27-a", "f27-b", "f81", "f125"],
)
def test_dual_walsh_at_zero_equals_normalizer_times_sum(ctx, sa, sb, sign):
    """Cross-check tying the condition sum to the dual's spectrum, exactly.

    W_dual(0) = sum_z e^(F*(z)) must equal +-P_m * S where P_m is the exact
    ring stand-in for p^(m/2).  This pins the condition-sum computation to an
    independent spectral quantity.
    """
    p, m = ctx.p, ctx.m
    spec = NdCorSpec(ctx, parse_coefficient(ctx, sa), parse_coefficient(ctx, sb))
    S = ndcor_condition_sum(spec)
    rep = classify(ndcor_function(spec))
    w0 = walsh_fast(rep.dual)[0]
    normalizer = CycInt.from_int(p, p ** (m // 2)) if m % 2 == 0 else gauss_sum(p) * p ** ((m - 1) // 2)
    expected = normalizer * S
    assert w0 == (expected if sign == 1 else -expected)


def test_bent_pair_with_abs_p_but_non_bent_dual():
    # |S| = p does not rescue the dual: this pair has |S|^2 = 9 yet F* is not bent
    spec = NdCorSpec(F27, F27.w, F27.w**2)
    S = ndcor_condition_sum(spec)
    assert S.abs_sq() == CycInt.from_int(3, 9)
    rep = classify(ndcor_function(spec))
    assert rep.is_bent
    assert rep.dual_is_bent is False


# ---- selector-variable recursion ---------------------------------------------------------


def test_agw_walsh_identity_holds_unconditionally(rng):
    dom = Domain.vec(3, 2)
    for _ in range(10):
        f_list = [random_function(dom, rng) for _ in range(3)]
        assert agw_walsh_identity(f_list)


def test_agw_validation(rng):
    dom = Domain.vec(3, 2)
    fs = [random_function(dom, rng) for _ in range(3)]
    with pytest.raises(ConstructionError):
        agw_combine([])
    with pytest.raises(ConstructionError):
        agw_combine(fs[:2])  # needs exactly p = 3
    with pytest.raises(ConstructionError):
        agw_combine([from_expr(F27, "Tr(x^2)")] * 3)  # field domain not allowed
    with pytest.raises(ConstructionError):
        agw_combine(fs[:2] + [random_function(Domain.vec(3, 3), rng)])


def test_agw_dual_refuses_what_agw_combine_refuses(rng):
    fs = [random_function(Domain.vec(3, 3), rng) for _ in range(3)]
    for bad in (
        [],
        fs[:2],
        [from_expr(F27, "Tr(x^2)")] + fs[:2],  # a field table first
        fs[:2] + [random_function(Domain.vec(3, 2), rng)],
    ):
        with pytest.raises(ConstructionError) as combine_error:
            agw_combine(bad)
        with pytest.raises(ConstructionError) as dual_error:
            agw_dual(bad)
        assert str(dual_error.value) == str(combine_error.value)


def agw_by_index(f_list: list[PFunction], dual: bool) -> np.ndarray:
    """F(x, s, y) = f_y(x) + s*y, or F*(x, s, y) = f*_s(x) - s*y, with each
    point index split into its x, s and y parts."""
    base = f_list[0].domain
    p, nf = base.p, base.size
    idx = np.arange(p * p * nf, dtype=np.int64)
    x = idx % nf
    s = (idx // nf) % p
    y = idx // (nf * p)
    stacked = np.stack([fj.table for fj in f_list], axis=0)
    return (stacked[s, x] - s * y) % p if dual else (stacked[y, x] + s * y) % p


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_agw_tables_follow_the_index_formulas(p, n):
    rng = np.random.default_rng(100 * p + n)
    f_list = [random_function(Domain.vec(p, n), rng) for _ in range(p)]
    for build, dual in ((agw_combine, False), (agw_dual, True)):
        F = build(f_list)
        assert F.domain == Domain.vec(p, n + 2)
        assert np.array_equal(F.table, agw_by_index(f_list, dual))


def linear_shift(base: PFunction, a: int) -> PFunction:
    dom = base.domain
    return PFunction(
        dom, [(base(x) + dom.inner_product(a, x)) % dom.p for x in range(dom.size)]
    )


def test_agw_combine_bent_iff_all_bent():
    g = coordinate_product(3)
    bent_list = [g, linear_shift(g, 1), linear_shift(g, 5)]
    F = agw_combine(bent_list)
    assert F.domain.size == 3**4
    rep = classify(F)
    assert rep.is_bent
    duals = [classify(fj).dual for fj in bent_list]
    assert np.array_equal(agw_dual(duals).table, rep.dual.table)
    # break one slot: the combination must stop being bent
    broken = [g, linear_shift(g, 1), zero_function(g.domain)]
    assert not classify(agw_combine(broken)).is_bent


def test_agw_dual_bent_iff_all_duals_bent():
    # one slot carries a bent function whose dual is NOT bent; the recursion
    # then yields a bent function whose dual is not bent either
    bad = ndcor_function(NdCorSpec(F27, F27.w, F27.w**2 + 1)).as_vec()  # 3^5 points
    good = direct_sum(from_expr(F27, "Tr(x^2)"), coordinate_product(3)).as_vec()
    third = linear_shift(good, 7)
    mixed = agw_combine([good, bad, third])
    rep = classify(mixed)
    assert rep.is_bent
    assert rep.dual_is_bent is False
    all_good = agw_combine([good, linear_shift(good, 3), third])
    rep2 = classify(all_good)
    assert rep2.is_bent
    assert rep2.dual_is_bent is True


# ---- bundled examples -----------------------------------------------------------------


def test_sporadic_validation():
    for name, ctx, variant, message in [
        ("g1", F81, None, "g1 needs F_{3^6}"),
        ("g2", F27, 0, "g2 needs F_{3^4}"),
        ("g2", F81, None, "g2 needs a variant in 0..3"),
        ("g2", F81, 4, "g2 needs a variant in 0..3"),
        ("g3", make_field(3, 6, MOD_3_6), 0, "g3 has no variants"),
        ("g9", F81, 0, "unknown example 'g9'"),
        ("g2", F125, 0, "the bundled examples live in characteristic 3"),
    ]:
        with pytest.raises(ConstructionError) as err:
            sporadic(name, ctx, variant)
        assert str(err.value) == message


def test_sporadic_tables_follow_their_formulas():
    """Each example against its formula, evaluated point by point in field
    arithmetic; g2's coefficients +-xi^10 and +-xi^30 have order 8."""
    F729 = make_field(3, 6, MOD_3_6)
    xi = F729.g
    for name, formula in [
        ("g1", lambda x: (xi**7 * x**98).trace()),
        ("g3", lambda x: (xi**7 * x**14).trace() + (xi**35 * x**70).trace()),
    ]:
        expected = [formula(F729.element(i)) % 3 for i in range(F729.q)]
        assert sporadic(name, F729).table.tolist() == expected, name
    for text in ("g^10", "g^30"):
        a = parse_coefficient(F81, text)
        assert a**8 == F81.one and a**4 != F81.one
    xi = F81.g
    for variant, a0 in enumerate([xi**10, -(xi**10), xi**30, -(xi**30)]):
        expected = [
            ((a0 * x**22).trace() + (x**4).trace()) % 3 for x in map(F81.element, range(F81.q))
        ]
        assert sporadic("g2", F81, variant).table.tolist() == expected, variant


@pytest.mark.parametrize("variant", [0, 1, 2, 3])
def test_g2_all_variants_match_claim(variant):
    rep = classify(sporadic("g2", F81, variant))
    assert rep.has_non_bent_dual()
    assert rep.is_bent and rep.regularity == NON_WEAKLY_REGULAR
    assert rep.dual_is_bent is False


@pytest.mark.parametrize("name", ["g1", "g3"])
def test_g1_g3_on_supplied_sextic_modulus(name):
    ctx = make_field(3, 6, MOD_3_6)
    rep = classify(sporadic(name, ctx))
    assert rep.has_non_bent_dual()
    assert rep.is_bent and rep.dual_is_bent is False


def _irreducible_moduli(m):
    """Every monic irreducible polynomial of degree m over F_3, lowest digit first."""
    digits = itertools.product(range(3), repeat=m)
    return [d + (1,) for d in digits if poly_is_irreducible(d + (1,), 3)]


def test_sporadic_claims_hold_on_every_modulus():
    """The default generator of every irreducible sextic and quartic works:
    g1 and g3 on all 116 sextics, g2's four variants on all 18 quartics."""
    sextics, quartics = _irreducible_moduli(6), _irreducible_moduli(4)
    assert (len(sextics), len(quartics)) == (116, 18)
    for mod in sextics:
        ctx = make_field(3, 6, mod)
        assert all(classify(sporadic(name, ctx)).has_non_bent_dual() for name in ("g1", "g3")), mod
    for mod in quartics:
        ctx = make_field(3, 4, mod)
        assert all(classify(sporadic("g2", ctx, v)).has_non_bent_dual() for v in range(4)), mod


@pytest.mark.parametrize(
    "modulus,names",
    [(MOD_3_6, [("g1", None), ("g3", None)]), (F81.modulus, [("g2", v) for v in range(4)])],
    ids=["F729", "F81"],
)
def test_sporadic_claims_hold_for_every_generator(modulus, names):
    """The claims do not depend on which primitive element plays xi."""
    m = len(modulus) - 1
    gens = FieldCtx(3, m, modulus).primitive_indices()
    assert len(gens) == {6: 288, 4: 32}[m]
    for gidx in gens:
        ctx = FieldCtx(3, m, modulus, primitive=gidx)
        assert all(classify(sporadic(name, ctx, v)).has_non_bent_dual() for name, v in names), gidx


# ---- pair enumeration and the search record ------------------------------------------------


def _all_pairs(ctx):
    """The scan's whole pair list as (alpha, beta) tuples."""
    return list(map(tuple, pair_slice(ctx, 0, pair_count(ctx)).tolist()))


@pytest.mark.parametrize("ctx", [F27, F81, F125], ids=["F27", "F81", "F125"])
def test_independent_pairs_match_rank_definition(ctx):
    """The vectorized test against row reduction, over every (alpha, beta)."""
    one = ctx.one.coeffs
    digits = [tuple(int(v) for v in row) for row in digit_table(ctx.p, ctx.m)]
    expected = [
        (a, b)
        for a in range(ctx.q)
        for b in range(ctx.q)
        if _rank_mod_p([one, digits[a], digits[b]], ctx.p) == 3
    ]
    assert _all_pairs(ctx) == expected


def test_independent_pairs_count_and_rank():
    pairs = _all_pairs(F27)
    # q = 27: (27 - 3) choices with {1, a} free, (27 - 9) with {1, a, b} free
    assert len(pairs) == (27 - 3) * (27 - 9) == pair_count(F27) == 432
    assert pairs == sorted(pairs)  # lexicographic in (a, b)
    for a, b in pairs[:10] + pairs[-5:]:
        NdCorSpec(F27, a, b)  # must not raise


def test_evaluate_pair_record_shape():
    w_idx = F27.w.index
    w2_idx = (F27.w**2).index
    rec = evaluate_pair(F27, w_idx, w2_idx)
    assert rec["p"] == 3 and rec["m"] == 3
    assert rec["modulus"] == list(F27.modulus)
    assert rec["alpha"] == w_idx and rec["beta"] == w2_idx
    assert rec["alpha_poly"] == "w"
    assert rec["beta_poly"] == "w^2"
    assert rec["abs_sq_S"] == 9
    assert rec["bent"] is True
    assert rec["regularity"] == NON_WEAKLY_REGULAR
    assert rec["dual_bent"] is False
    assert set(rec) == {
        "p", "m", "modulus", "alpha", "alpha_poly", "beta", "beta_poly",
        "abs_sq_S", "bent", "regularity", "dual_bent",
    }


def _sample(pairs, rng, k):
    """k pairs drawn without replacement, kept in lexicographic order."""
    picks = rng.choice(len(pairs), size=min(k, len(pairs)), replace=False)
    return [pairs[i] for i in np.sort(picks)]


def _check_against_oracle(ctx, pairs):
    """Every rendered line, with and without runtime_ms, is the json.dumps of
    the full classification's record; returns those records."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    verdicts = evaluate_pairs(ctx, pairs)
    lines = pair_lines(ctx, pairs, verdicts).splitlines()
    timed = pair_lines(ctx, pairs, verdicts, 0.125).splitlines()
    assert len(lines) == len(timed) == len(pairs)
    records = []
    for (a, b), line, timed_line in zip(pairs.tolist(), lines, timed):
        rec = evaluate_pair(ctx, a, b)
        assert line == json.dumps(rec, sort_keys=True), (a, b)
        assert timed_line == json.dumps({**rec, "runtime_ms": 0.125}, sort_keys=True), (a, b)
        records.append(rec)
    return records


def test_evaluate_pairs_equals_full_classification_on_all_f27_pairs():
    records = _check_against_oracle(F27, _all_pairs(F27))
    assert len(records) == 432


@pytest.mark.parametrize(
    "ctx,k",
    [
        (F81, 150),
        (F125, 120),
        (make_field(7, 3, (1, 0, 1, 1)), 20),
        (make_field(11, 3, (1, 0, 4, 1)), 3),
        (make_field(13, 3, (1, 0, 4, 1)), 1),
    ],
    ids=["F81", "F125", "F343", "F1331", "F2197"],
)
def test_evaluate_pairs_equals_full_classification_on_samples(ctx, k, rng):
    """k distinct seeded pairs, drawn without listing every pair of the field;
    at p = 5 and 7 some |S|^2 are irrational and print as coefficient lists."""
    a, b = rng.integers(0, ctx.q, size=(2, 2 * k + 8))
    keep = _independent(ctx, a, b)
    pairs = list(dict.fromkeys(zip(a[keep].tolist(), b[keep].tolist())))[:k]
    assert len(pairs) == k
    records = _check_against_oracle(ctx, sorted(pairs))
    if ctx.p in (5, 7):
        assert any(isinstance(r["abs_sq_S"], list) for r in records)


def test_evaluate_pairs_finds_bent_duals_on_f243(rng):
    """F_243 has pairs whose dual is bent; the closed form must agree with
    full classification on those and on a plain sample."""
    ctx = make_field(3, 5, (1, 0, 0, 0, 2, 1))
    pairs = _all_pairs(ctx)
    assert len(pairs) == (243 - 3) * (243 - 9)
    pool = np.array(_sample(pairs, rng, 3000))
    bent_dual = pool[evaluate_pairs(ctx, pool).dual_bent].tolist()
    assert len(bent_dual) >= 4
    picked = _sample(bent_dual, rng, 8) + _sample(pairs, rng, 40)
    records = _check_against_oracle(ctx, picked)
    assert sum(r["dual_bent"] for r in records) >= 4
    assert all(r["regularity"] == NON_WEAKLY_REGULAR for r in records)


def test_evaluate_pairs_constant_eta_pairs_are_regular_on_f729(rng):
    """On F_729 some pairs have eta(Lambda_b) = +1 for every b: F is then
    regular, as Tr(x^2) is on F_729, and its dual is bent.  classify reads
    that off the constant unit map, so the dual's transform checks it here."""
    ctx = make_field(3, 6, (1, 0, 0, 0, 1, 1, 1))
    assert classify(monomial_bent(ctx, ctx.one, 0)).regularity == REGULAR
    pairs = _all_pairs(ctx)
    pool = np.array(_sample(pairs, rng, 6000))
    constant = pool[~evaluate_pairs(ctx, pool).mixed].tolist()
    assert len(constant) >= 4
    chosen = _sample(constant, rng, 4)
    records = _check_against_oracle(ctx, chosen + _sample(pairs, rng, 12))
    for (a, b), rec in zip(chosen, records):
        assert rec["regularity"] == REGULAR and rec["dual_bent"] is True
        rep = classify(ndcor_function(NdCorSpec(ctx, ctx.element(a), ctx.element(b))))
        assert is_bent(walsh_fast(rep.dual)), (a, b)


def test_pair_slice_cuts_the_pair_list_anywhere(rng):
    """Any start..stop of the scan, inside one alpha's betas or across
    several, is the same slice of the whole list; like a slice, a stop
    past the end keeps the pairs that exist, and a start at or past it
    gives an empty [0, 2] array."""
    ctx = make_field(3, 4)
    pairs = _all_pairs(ctx)
    total = len(pairs)
    assert total == (81 - 3) * (81 - 9)
    cuts = [(0, 0), (0, 1), (71, 73), (0, total), (total - 5, total)]
    cuts += [tuple(sorted(c)) for c in rng.integers(0, total + 1, size=(20, 2)).tolist()]
    cuts += [(0, total + 5), (total - 3, total + 70), (total - 1, 10**6), (total, total + 1),
             (total + 3, total + 9), (10**6, 2 * 10**6)]
    for start, stop in cuts:
        got = pair_slice(ctx, start, stop)
        assert got.shape == (len(pairs[start:stop]), 2) and got.dtype == np.int64
        assert list(map(tuple, got.tolist())) == pairs[start:stop], (start, stop)


def _abs_sq_rule(ctx, pairs):
    """The dual verdict by |T(w)|^2 = p^2 for every w, with |T|^2 formed by
    walsh._abs_sq: the rule the candidate match replaced, kept as an oracle.
    Returns the |T(0)|^2 rows and the verdicts."""
    p = ctx.p
    _, phased = _pair_rows(ctx, *pairs.T)
    T = _dft(phased.reshape(-1, p - 1), p, 2, +1)
    abs_sq = _abs_sq(T, p).reshape(len(pairs), p * p, p - 1)
    target = np.zeros(p - 1, dtype=np.int64)
    target[0] = p * p
    return abs_sq[:, 0], (abs_sq == target).all(axis=(1, 2))


@pytest.mark.parametrize(
    "ctx,k,dual_bent_count",
    [
        (F81, None, 0),
        (make_field(3, 5, (1, 0, 0, 0, 2, 1)), None, 1080),
        (make_field(7, 3, (1, 0, 1, 1)), 4000, None),
        (make_field(11, 3, (1, 0, 4, 1)), 600, None),
        (make_field(13, 3, (1, 0, 4, 1)), 300, None),
    ],
    ids=["F81", "F243", "F343", "F1331", "F2197"],
)
def test_dual_bent_verdict_equals_the_abs_sq_rule(ctx, k, dual_bent_count, rng):
    """evaluate_pairs' candidate match against the |T(w)|^2 rule on every
    pair of F_81 and F_243 and on k seeded pairs of the larger fields; the
    dual-bent counts are those of the full scans' summaries."""
    total = pair_count(ctx)
    if k is None:
        pairs = pair_slice(ctx, 0, total)
    else:
        starts = np.unique(rng.integers(0, total, size=k)).tolist()
        pairs = np.concatenate([pair_slice(ctx, s, s + 1) for s in starts])
    verdicts = evaluate_pairs(ctx, pairs)
    abs_sq_S, dual_bent = _abs_sq_rule(ctx, pairs)
    assert np.array_equal(verdicts.abs_sq_S, abs_sq_S)
    assert np.array_equal(verdicts.dual_bent, dual_bent)
    if dual_bent_count is not None:
        assert (len(pairs), int(dual_bent.sum())) == (total, dual_bent_count)


def test_evaluate_pairs_rejects_dependent_pairs_and_oversized_fields():
    with pytest.raises(ConstructionError):
        evaluate_pairs(F27, [(F27.w.index, (F27.w**2).index), (F27.w.index, F27.w.index)])
    big = make_field(17, 3, (3, 1, 0, 1))  # F lives on 17^5 points
    with pytest.raises(DomainError):
        evaluate_pairs(big, [(17, 289)])


def test_condition_sum_matches_its_definition(rng):
    """S as the sum of the canonical eta rows against scalar field arithmetic."""
    cases = [(F27, pair) for pair in _all_pairs(F27)]
    cases += [(F125, pair) for pair in _sample(_all_pairs(F125), rng, 40)]
    for ctx, (a, b) in cases:
        alpha, beta, p = ctx.element(a), ctx.element(b), ctx.p
        S = CycInt.zero(p)
        for y1 in range(p):
            for y2 in range(p):
                S = S + (ctx.one + y1 * alpha + y2 * beta).eta() * root_power(p, -y1 * y2)
        assert ndcor_condition_sum(NdCorSpec(ctx, alpha, beta)) == S


def test_evaluate_pair_irrational_abs_sq_uses_coefficient_list():
    w_idx = F125.w.index
    w2_idx = (F125.w**2).index
    rec = evaluate_pair(F125, w_idx, w2_idx)
    assert rec["abs_sq_S"] == [17, 0, -16, -16]
    assert rec["bent"] is True and rec["dual_bent"] is False


# ---- table storage: table_dtype(p), sums in int64 -------------------------------------


def _stored(table: np.ndarray, p: int, reference) -> bool:
    """Whether a table is in table_dtype(p) and equals the Python-int
    reference reduced mod p."""
    return table.dtype == table_dtype(p) and table.tolist() == [v % p for v in reference]


@pytest.mark.parametrize("p", [3, 127, 131])
def test_every_producer_stores_tables_in_table_dtype(p, rng, tmp_path):
    """Every producer's table is in table_dtype(p), int8 up to p = 127 and
    int16 at 131, and equals a Python-int reference.  At p = 127 the sum of
    two entries passes int8, so a site that added tables before widening
    them to int64 would wrap."""
    ctx = make_field(p, 1)  # F_p: point x is the element x, and Tr is the identity
    dom, xs = Domain.field(ctx), range(p)
    f, g = random_function(dom, rng), random_function(dom, rng)
    F, G = f.table.tolist(), g.table.tolist()
    assert _stored(random_function(dom, np.random.default_rng(7)).table, p,
                   np.random.default_rng(7).integers(0, p, p).tolist())  # the int64 draw
    assert _stored(zero_function(dom).table, p, [0] * p)
    assert _stored((f + g).table, p, [a + b for a, b in zip(F, G)])
    assert _stored((f - g).table, p, [a - b for a, b in zip(F, G)])
    assert _stored((-f).table, p, [-a for a in F])
    path = tmp_path / "f.tt"
    save_tt(f, path)
    assert _stored(load_tt(path).table, p, F)
    assert _stored(from_expr(ctx, f"{p - 1}*Tr(x^2) + {p - 1}").table, p,
                   [(p - 1) * (x * x + 1) for x in xs])
    assert _stored(monomial_bent(ctx, p - 1, 0).table, p, [-x * x for x in xs])
    assert _stored(coordinate_product(p).table, p, [y1 * y2 for y2 in xs for y1 in xs])
    assert _stored(direct_sum(f, g).table, p, [a + b for b in G for a in F])
    # the dual of x^2 + c*x is b -> -(b - c)^2 / 4, by completing the square
    quarter = pow(4, -1, p)
    square = from_expr(ctx, "Tr(x^2)")
    assert _stored(extract_dual(walsh_fast(square))[0].table, p, [-b * b * quarter for b in xs])
    assert _stored(classify(square).dual.table, p, [-b * b * quarter for b in xs])
    # F(x, y) = x^2 + (y - x)^2: G_b(x) = x^2 - b*x, bent for every b
    spec = SdsSpec(f=square, g=square_map(p), h=[PFunction(dom, [-x for x in xs])])
    assert _stored(spec.slices().reshape(-1), p, [x * x - b * x for b in xs for x in xs])
    assert _stored(semi_direct_sum(spec).table, p, [x * x + (y - x) ** 2 for y in xs for x in xs])
    assert _stored(sds_dual(spec).table, p,
                   [-((x + y) ** 2) * quarter - y * y * quarter for y in xs for x in xs])
    if p == 3:  # the constructions that only exist, or only fit SIZE_LIMIT, at small p
        built = [
            cm_bent(F27, 1, 1),
            cor1_family(F27, "monomial", 0, [1, F27.w], square_map(3)).function,
            ndcor_function(NdCorSpec(F27, F27.w, F27.w**2 + 1)),
            sporadic("g2", F81, 0),
            agw_combine([square_map(3)] * 3),
            agw_dual([square_map(3)] * 3),
        ]
        assert all(b.table.dtype == np.int8 for b in built)
