"""Acceptance gate: one test per bundled acceptance criterion.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (visible with -rA or -s)
and then asserts.  Criteria 2 and 3 pin bundled reference values for the
condition sum that disagree with what exact arithmetic yields; those
assertions fail by design rather than silently adjusting the expectation.
The exact cross-check anchoring the computed values to an independent
spectral identity lives in
test_constructions.py::test_dual_walsh_at_zero_equals_normalizer_times_sum.
"""
import itertools
import time
from math import sqrt

import numpy as np

from pbent.bent import (
    NON_WEAKLY_REGULAR,
    REGULAR,
    WEAKLY_REGULAR,
    classify,
    weak_regular_dual_relation,
)
from pbent.constructions import (
    NdCorSpec,
    SdsSpec,
    agw_combine,
    agw_walsh_identity,
    cm_bent,
    coordinate_product,
    direct_sum,
    monomial_bent,
    ndcor_condition_sum,
    ndcor_function,
    semi_direct_sum,
    sds_is_bent_condition,
    sporadic,
)
from pbent.cyclo import CycInt, root_power
from pbent.field import make_field
from pbent.pfunc import (
    Domain,
    PFunction,
    VecPart,
    from_expr,
    random_function,
    zero_function,
)
from pbent.walsh import poisson_check, walsh_fast, walsh_naive

MOD36 = (2, 1, 0, 0, 0, 0, 1)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} — {detail}")


def full_claim(rep) -> bool:
    return (
        rep.is_bent
        and rep.regularity == NON_WEAKLY_REGULAR
        and rep.dual_is_bent is False
    )


# ---- criterion 1: the two cubic-field pairs ------------------------------------------------


def test_acceptance_1_cubic_pairs():
    t0 = time.monotonic()
    ctx = make_field(3, 3)
    results = []
    for alpha, beta in [(ctx.w, ctx.w**2 + 1), (2 * ctx.w + 1, ctx.w**2)]:
        spec = NdCorSpec(ctx, alpha, beta)
        S = ndcor_condition_sum(spec)
        s2 = S.abs_sq()
        rep = classify(ndcor_function(spec))
        results.append((s2, rep))
    elapsed = time.monotonic() - t0
    values_ok = all(s2.is_rational and s2.as_int() == 3 for s2, _ in results)
    class_ok = all(full_claim(rep) for _, rep in results)
    ok = values_ok and class_ok and elapsed < 1.0
    report(
        "1",
        ok,
        f"|S|^2 = {[str(s2) for s2, _ in results]} (expected 3, 3); "
        f"both bent, non-weakly-regular, dual not bent = {class_ok}; {elapsed:.3f}s",
    )
    assert values_ok
    assert class_ok
    assert elapsed < 1.0


# ---- criterion 2: the quartic-field pair ---------------------------------------------------


def test_acceptance_2_quartic_pair_reference_values():
    t0 = time.monotonic()
    ctx = make_field(3, 4)
    spec = NdCorSpec(ctx, ctx.w, ctx.w**2)
    S = ndcor_condition_sum(spec)
    s2 = S.abs_sq()
    abs2 = s2.as_int() if s2.is_rational else str(s2)
    z = S.to_complex()
    target = complex(1.0, -2.0 * sqrt(3.0))
    rep = classify(ndcor_function(spec))  # 3^6 = 729 points
    elapsed = time.monotonic() - t0

    class_ok = full_claim(rep)
    value_ok = abs2 == 13
    float_ok = abs(z - target) <= 1e-9
    report(
        "2",
        value_ok and float_ok and class_ok and elapsed < 5.0,
        f"|S|^2 computed {abs2} (reference 13); "
        f"float(S) computed {z.real:+.6f}{z.imag:+.6f}i "
        f"(reference {target.real:+.6f}{target.imag:+.6f}i); "
        f"classification bent={rep.is_bent}, dual_bent={rep.dual_is_bent}; {elapsed:.2f}s",
    )
    assert class_ok
    assert elapsed < 5.0
    assert value_ok, (
        f"reference |S|^2 = 13 but exact arithmetic gives |S|^2 = {abs2} "
        f"(S = {S}); the computed value is pinned by the spectral identity in "
        "test_constructions.py::test_dual_walsh_at_zero_equals_normalizer_times_sum"
    )
    assert float_ok, (
        f"reference S = 1 - 2*sqrt(3)i but exact arithmetic gives S = {S} = {z}; "
        "see test_constructions.py::test_dual_walsh_at_zero_equals_normalizer_times_sum"
    )


# ---- criterion 3: the quintic-characteristic pair ------------------------------------------


def test_acceptance_3_quintic_pair_reference_values():
    t0 = time.monotonic()
    ctx = make_field(5, 3)
    spec = NdCorSpec(ctx, ctx.w, ctx.w**2)
    S = ndcor_condition_sum(spec)
    s2 = S.abs_sq()
    not_25 = not (s2.is_rational and s2.as_int() == 25)
    rep = classify(ndcor_function(spec))  # 5^5 = 3125 points
    elapsed = time.monotonic() - t0

    expected_S = 4 * root_power(5, 4) - 4 * root_power(5, 1) + CycInt.one(5)
    value_ok = S == expected_S
    class_ok = full_claim(rep)
    report(
        "3",
        value_ok and not_25 and class_ok and elapsed < 10.0,
        f"S computed {S} (reference {expected_S}); |S|^2 = {s2} (must differ from 25: {not_25}); "
        f"classification bent={rep.is_bent}, dual_bent={rep.dual_is_bent}; {elapsed:.2f}s",
    )
    assert not_25
    assert class_ok
    assert elapsed < 10.0
    assert value_ok, (
        f"reference S = 4e^4 - 4e + 1 = {expected_S} but exact arithmetic gives "
        f"S = {S}; the computed value is pinned by the spectral identity in "
        "test_constructions.py::test_dual_walsh_at_zero_equals_normalizer_times_sum"
    )


# ---- criterion 4: |S| = p does not make the dual bent --------------------------------------


def test_acceptance_4_modulus_p_pair_still_non_dual_bent():
    t0 = time.monotonic()
    ctx = make_field(3, 3)
    spec = NdCorSpec(ctx, ctx.w, ctx.w**2)
    S = ndcor_condition_sum(spec)
    s2 = S.abs_sq()
    rep = classify(ndcor_function(spec))
    elapsed = time.monotonic() - t0
    value_ok = s2.is_rational and s2.as_int() == 9
    class_ok = rep.is_bent and rep.dual_is_bent is False
    ok = value_ok and class_ok and elapsed < 1.0
    report(
        "4",
        ok,
        f"|S|^2 = {s2} (expected 9) yet dual_bent={rep.dual_is_bent}; {elapsed:.3f}s",
    )
    assert value_ok
    assert class_ok
    assert elapsed < 1.0


# ---- criterion 5: the four quartic bundled variants ----------------------------------------


def test_acceptance_5_quartic_bundled_variants():
    t0 = time.monotonic()
    ctx = make_field(3, 4)
    reps = []
    for variant in range(4):
        rep = classify(sporadic("g2", ctx, variant))
        reps.append((rep.has_non_bent_dual(), rep))
    elapsed = time.monotonic() - t0
    all_bent = all(rep.is_bent for _, rep in reps)
    n_claim = sum(1 for holds, _ in reps if holds)
    ok = all_bent and n_claim >= 1 and elapsed < 5.0
    report(
        "5",
        ok,
        f"all four variants bent = {all_bent}; {n_claim}/4 match the full claim; {elapsed:.2f}s",
    )
    assert all_bent
    assert n_claim >= 1
    assert elapsed < 5.0


# ---- criterion 6: the sextic bundled examples ----------------------------------------------


def test_acceptance_6_sextic_bundled_examples():
    t0 = time.monotonic()
    ctx = make_field(3, 6, MOD36)
    outcomes = {}
    for name in ("g1", "g3"):
        outcomes[name] = classify(sporadic(name, ctx)).has_non_bent_dual()
    elapsed = time.monotonic() - t0
    ok = all(outcomes.values()) and elapsed < 60.0
    report("6", ok, f"claims hold: {outcomes}; {elapsed:.2f}s")
    assert all(outcomes.values())
    assert elapsed < 60.0


# ---- criterion 7: the property suite --------------------------------------------------------


def test_acceptance_7a_energy_and_inversion(rng):
    shapes = [
        Domain.vec(3, 2),
        Domain.vec(3, 5),
        Domain.vec(5, 3),
        Domain.field(make_field(3, 4)),
        Domain.field(make_field(3, 3)).extend(VecPart(3, 2)),
        Domain.field(make_field(5, 3)),
        Domain.field(make_field(5, 2, (2, 0, 1))).extend(VecPart(5, 1)),
    ]
    checked = 0
    for dom in shapes:
        assert dom.n_total <= 5
        for _ in range(100):
            f = random_function(dom, rng)
            W = walsh_fast(f)
            assert W.parseval_ok()
            assert poisson_check(f, W)
            checked += 1
    report("7a", True, f"energy + inversion identities on {checked} random functions")


def test_acceptance_7b_fast_equals_naive(rng):
    dom1 = Domain.vec(3, 1)
    for table in itertools.product(range(3), repeat=3):
        f = PFunction(dom1, table)
        a, b = walsh_fast(f), walsh_naive(f)
        assert np.array_equal(a.values, b.values)
    dom2 = Domain.vec(3, 2)
    for table in itertools.product(range(3), repeat=9):
        f = PFunction(dom2, table)
        a, b = walsh_fast(f), walsh_naive(f)
        assert np.array_equal(a.values, b.values)
    larger = [
        Domain.vec(3, 3),
        Domain.vec(5, 2),
        Domain.field(make_field(3, 3)),
        Domain.field(make_field(5, 2, (2, 0, 1))).extend(VecPart(5, 1)),
        Domain.field(make_field(3, 2, (1, 0, 1))).extend(VecPart(3, 1)),
    ]
    randomized = 0
    for dom in larger:
        for _ in range(25):
            f = random_function(dom, rng)
            assert np.array_equal(walsh_fast(f).values, walsh_naive(f).values)
            randomized += 1
    assert randomized >= 100
    report(
        "7b", True,
        f"exhaustive agreement on 3^3 + 3^9 small tables, {randomized} randomized elsewhere",
    )


def quadratic_unit(ctx, alpha_idx: int) -> int:
    e = ctx.eta_idx(alpha_idx)
    m = ctx.m
    if ctx.p % 4 == 1:
        return e * (-1) ** (m - 1)
    if m % 2 == 0:
        return -e * (-1) ** (m // 2)
    return e * (-1) ** ((m - 1) // 2)


def test_acceptance_7c_quadratic_family_units(rng):
    fields = [
        make_field(3, 1),
        make_field(3, 2, (1, 0, 1)),
        make_field(3, 3),
        make_field(3, 4),
        make_field(5, 1),
        make_field(5, 2, (2, 0, 1)),
        make_field(5, 3),
        make_field(5, 4, (2, 0, 0, 0, 1)),
    ]
    checked = 0
    for ctx in fields:
        m = ctx.m
        ks = [k for k in range(m + 1) if (m // int(np.gcd(m, k))) % 2 == 1]
        alphas = {int(a) for a in rng.integers(1, ctx.q, size=20)}
        for k in ks:
            for a in alphas:
                rep = classify(monomial_bent(ctx, a, k))
                assert rep.is_bent
                assert rep.regularity in (REGULAR, WEAKLY_REGULAR)
                assert rep.constant_unit == quadratic_unit(ctx, a), (ctx.p, m, k, a)
                assert weak_regular_dual_relation(monomial_bent(ctx, a, k), rep).ok
                checked += 1
        if ctx.p == 3:
            cks = [k for k in range(1, 2 * m) if np.gcd(2 * m, k) == 1]
            for k in cks:
                for a in list(alphas)[:5]:
                    rep = classify(cm_bent(ctx, a, k))
                    assert rep.is_bent
                    assert rep.constant_unit == quadratic_unit(ctx, a)
                    checked += 1
    report("7c", True, f"unit formula verified on {checked} (field, k, alpha) triples")


def test_acceptance_7d_semi_direct_sum_iff():
    verdicts = []
    for p, m, modulus in [(3, 2, (1, 0, 1)), (3, 3, None)]:
        ctx = make_field(p, m, modulus)
        pool = [
            zero_function(Domain.field(ctx)),
            from_expr(ctx, "Tr(x^2)"),
            from_expr(ctx, "Tr(wx^2)"),
            from_expr(ctx, "Tr(w^2x^2)"),
        ]
        f = from_expr(ctx, "Tr(x^2)")
        sq = PFunction(Domain.vec(3, 1), [0, 1, 1])
        specs = [SdsSpec(f=f, g=sq, h=[h0]) for h0 in pool]
        specs += [
            SdsSpec(f=f, g=coordinate_product(3), h=[h0, h1])
            for h0 in pool
            for h1 in pool
        ]
        for spec in specs:
            cond = bool(sds_is_bent_condition(spec))
            assert classify(semi_direct_sum(spec)).is_bent == cond
            verdicts.append(cond)
    assert any(verdicts) and not all(verdicts)
    report(
        "7d", True,
        f"bentness equivalence on {len(verdicts)} exhaustive parameter choices "
        f"({sum(verdicts)} bent, {len(verdicts) - sum(verdicts)} not)",
    )


def test_acceptance_7e_selector_recursion(rng):
    dom = Domain.vec(3, 2)
    for _ in range(50):
        f_list = [random_function(dom, rng) for _ in range(3)]
        assert agw_walsh_identity(f_list)

    ctx = make_field(3, 3)
    bad = ndcor_function(NdCorSpec(ctx, ctx.w, ctx.w**2 + 1)).as_vec()
    good = direct_sum(from_expr(ctx, "Tr(x^2)"), coordinate_product(3)).as_vec()

    def shift(base, a):
        d = base.domain
        return PFunction(
            d, [(base(x) + d.inner_product(a, x)) % 3 for x in range(d.size)]
        )

    mixed = classify(agw_combine([good, bad, shift(good, 7)]))
    assert mixed.is_bent and mixed.dual_is_bent is False
    clean = classify(agw_combine([good, shift(good, 3), shift(good, 7)]))
    assert clean.is_bent and clean.dual_is_bent is True
    report(
        "7e", True,
        "spectral identity on 50 random triples; dual bentness mixes exactly as the slots do",
    )


def test_acceptance_7f_direct_sum_large():
    t0 = time.monotonic()
    ctx = make_field(3, 3)
    quad = from_expr(ctx, "Tr(x^2)")
    planted = ndcor_function(NdCorSpec(ctx, ctx.w, ctx.w**2 + 1))
    F = direct_sum(quad, planted)  # 3^8 = 6561 points
    assert F.domain.size == 3**8
    rep = classify(F)
    elapsed = time.monotonic() - t0
    ok = (
        rep.is_bent
        and rep.regularity == NON_WEAKLY_REGULAR
        and rep.dual_is_bent is False
        and elapsed < 120.0
    )
    report(
        "7f",
        ok,
        f"3^8-point direct sum: bent={rep.is_bent}, {rep.regularity}, "
        f"dual_bent={rep.dual_is_bent}; {elapsed:.2f}s",
    )
    assert rep.is_bent
    assert rep.regularity == NON_WEAKLY_REGULAR
    assert rep.dual_is_bent is False
    assert elapsed < 120.0
