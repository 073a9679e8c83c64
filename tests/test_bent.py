"""Bentness tests: normalizers, dual extraction, regularity, inverse duality."""
import numpy as np
import pytest
from conftest import traced_peak

import pbent.bent as bent_module
from pbent.bent import (
    NON_WEAKLY_REGULAR,
    NOT_BENT,
    REGULAR,
    WEAKLY_REGULAR,
    ClassReport,
    DualExtractionError,
    _candidate_table,
    _match,
    bent_normalizer,
    classify,
    classify_stack,
    extract_dual,
    is_bent,
    match_rows,
    weak_regular_dual_relation,
)
from pbent.constructions import (
    NdCorSpec, _independent, cm_bent, coordinate_product, direct_sum, monomial_bent,
    ndcor_function, sporadic,
)
from pbent.cyclo import CycInt, gauss_sum, legendre, root_power
from pbent.field import is_odd_prime, make_field
from pbent.pfunc import Domain, PFunction, from_expr, random_function, zero_function
from pbent.walsh import WalshSpectrum, walsh_fast, walsh_naive

F27 = make_field(3, 3)
F125 = make_field(5, 3)


def product_function(p: int, n_pairs: int) -> PFunction:
    """y_1 y_2 + y_3 y_4 + ... on F_p^(2 n_pairs), the standard regular example."""
    dom = Domain.vec(p, 2 * n_pairs)
    D = dom.digits_matrix()
    table = np.zeros(dom.size, dtype=np.int64)
    for t in range(n_pairs):
        table = (table + D[:, 2 * t] * D[:, 2 * t + 1]) % p
    return PFunction(dom, table)


# ---- the normalizer -------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bent_normalizer_has_modulus_p_to_n(p, n):
    P = bent_normalizer(p, n)
    assert P.abs_sq() == CycInt.from_int(p, p**n)
    if n % 2 == 0:
        assert P == CycInt.from_int(p, p ** (n // 2))
    else:
        assert P == gauss_sum(p) * p ** ((n - 1) // 2)


def test_normalizer_complex_value():
    # p = 3, n = 3: P = 3 * g_3 = 3i*sqrt(3)
    z = bent_normalizer(3, 3).to_complex()
    assert abs(z - 3j * 3**0.5) < 1e-9
    # p = 5, n = 1: P = g_5 = sqrt(5)
    z5 = bent_normalizer(5, 1).to_complex()
    assert abs(z5 - 5**0.5) < 1e-9


# ---- is_bent / extract_dual ---------------------------------------------------------------


def test_zero_function_is_not_bent():
    f = zero_function(Domain.vec(3, 2))
    v = is_bent(walsh_fast(f))
    assert not v
    assert v.witness == 0  # |W(0)|^2 = 81 != 9 already fails at b = 0
    report = classify(f)
    assert report.regularity == NOT_BENT
    assert not report.is_bent
    assert report.witnesses["not_bent_at"] == v.witness
    assert report.dual is None and report.dual_is_bent is None
    W = walsh_fast(product_function(3, 2))
    assert is_bent(W) == (True, None)
    for bad, witness in (([11, 80], 11), ([80], 80)):
        values = W.values.copy()
        values[bad] = 0  # |W(b)|^2 = 0 there, 9 everywhere else
        assert is_bent(WalshSpectrum(W.domain, values)) == (False, witness)


def test_extract_dual_rejects_non_bent():
    f = zero_function(Domain.vec(3, 2))
    with pytest.raises(DualExtractionError):
        extract_dual(walsh_fast(f))


def test_extract_dual_reconstructs_spectrum(rng):
    f = from_expr(F27, "Tr(x^2)")
    W = walsh_fast(f)
    dual, units = extract_dual(W)
    P = bent_normalizer(3, 3)
    for b in range(27):
        expected = P * root_power(3, dual(b))
        if units[b] == -1:
            expected = -expected
        assert W[b] == expected


def test_extract_dual_names_the_first_bad_row():
    W = walsh_fast(from_expr(F27, "Tr(x^2)"))
    for k, k2 in [(5, 17), (0, 26), (12, 13)]:
        values = W.values.copy()
        values[k] = [10**6, 0]  # |W(b)|^2 far above 27
        values[k2] = [-(10**6), 3]
        with pytest.raises(DualExtractionError, match=rf"at b={k} "):
            extract_dual(WalshSpectrum(W.domain, values))
        values = W.values.copy()
        values[k2, 0] += 1
        values[k, 1] -= 1
        with pytest.raises(DualExtractionError, match=rf"at b={k} "):
            extract_dual(WalshSpectrum(W.domain, values))


@pytest.mark.parametrize("where", ["later block", "first row of a block", "last row of a block"])
def test_block_match_names_the_first_bad_row_and_stops(where, monkeypatch):
    """The match runs a block of rows at a time and stops at the block that
    holds the first bad b, which it names exactly: also when b is a block's
    first or last row, and when rows after it, in its block or the next,
    are bad too."""
    B = bent_module._MATCH_ROWS
    W = walsh_fast(product_function(3, 5))
    assert len(W) > 3 * B
    first = {"later block": 2 * B + 7, "first row of a block": B, "last row of a block": 2 * B - 1}
    b = first[where]
    rows = W.values.copy()
    rows[[b, b + 1, len(W) - 1]] = 0
    bad = WalshSpectrum(W.domain, rows.astype(np.float32))
    blocks = []

    def counted(values, p, n):
        blocks.append(len(values))
        return match_rows(values, p, n)

    monkeypatch.setattr(bent_module, "match_rows", counted)
    assert is_bent(bad) == (False, b)
    assert len(blocks) == b // B + 1
    with pytest.raises(DualExtractionError, match=rf"at b={b} ") as exc:
        extract_dual(bad)
    assert exc.value.witness == b
    assert len(blocks) == 2 * (b // B + 1)


@pytest.mark.parametrize("n_pairs", [5, 1], ids=["long members", "short members"])
def test_stack_match_names_each_members_first_bad_row(n_pairs, rng, monkeypatch):
    """Members of one stack miss first at different blocks, or in the same
    block, or not at all: _match names each one's first bad b, gives a bent
    member the dual and units of its stack of one and its first b whose unit
    differs from u(0), and matches no block whose members have all missed."""
    W = walsh_fast(product_function(3, n_pairs))
    N, B = len(W), bent_module._MATCH_ROWS
    if N > B:  # 3^10 points: bad and negated rows at block edges, and later ones
        bad = [[], [2 * B + 7, 2 * B + 8, N - 1], [B], [2 * B - 1, 2 * B], [0, B], [], [N - 1], []]
        flip = [[], [], [], [], [], [2 * B, N - 1], [], [B - 1, B]]
    else:  # 9 points, 455 members a block: a block holds several misses
        bad = [sorted(rng.choice(N, rng.integers(0, 3), replace=False)) for _ in range(1500)]
        flip = [sorted(rng.choice(range(1, N), rng.integers(0, 3), replace=False)) for _ in bad]
    rows = np.repeat(W.values[None], len(bad), axis=0)
    for k, (b, f) in enumerate(zip(bad, flip)):
        rows[k, f] *= -1  # -W(b) is a bent value with the other unit
        rows[k, b] = 0  # |0|^2 is no p^n
    blocks = []

    def counted(values, p, n):
        blocks.append(len(values))
        return match_rows(values, p, n)

    monkeypatch.setattr(bent_module, "match_rows", counted)
    not_bent_at, duals, units, flips = _match(rows.astype(np.float32), 3, 2 * n_pairs)
    if N > B:  # every block of a bent member, and up to the first miss of the rest
        bent_members = sum(not b for b in bad)
        assert len(blocks) == bent_members * -(-N // B) + sum(b[0] // B + 1 for b in bad if b)
    else:
        assert len(blocks) == -(-len(bad) // (B // N))
    dual, unit_map = extract_dual(W)
    assert np.all(unit_map == unit_map[0])
    for k, (b, f) in enumerate(zip(bad, flip)):
        assert not_bent_at[k] == (b[0] if b else -1)
        assert is_bent(WalshSpectrum(W.domain, rows[k])) == (not b, b[0] if b else None)
        if not b:
            assert np.array_equal(duals[k], dual.table)
            sign = np.ones(N, dtype=np.int8)
            sign[f] = -1
            assert np.array_equal(units[k], unit_map * sign)
            assert flips[k] == (f[0] if f else -1)


def _same_report(got: ClassReport, want: ClassReport) -> None:
    keys = ("is_bent", "regularity", "constant_unit", "zeta", "dual_is_bent", "witnesses")
    assert [getattr(got, k) for k in keys] == [getattr(want, k) for k in keys]
    assert np.array_equal(got.spectrum.values, want.spectrum.values)
    if want.is_bent:
        assert got.dual == want.dual and np.array_equal(got.unit_map, want.unit_map)
        odd = got.unit_map != got.unit_map[0]
        assert got.witnesses.get("unit_mismatch_at", -1) == (np.argmax(odd) if odd.any() else -1)


def test_every_function_on_f3_2_in_one_stack():
    """The 3^9 functions on F_3^2 as one stack, each member against its own
    classify: 486 are bent."""
    dom = Domain.vec(3, 2)
    tables = np.arange(3**9)[:, None] // 3 ** np.arange(9) % 3
    reports = classify_stack(dom, tables)
    assert sum(rep.is_bent for rep in reports) == 486
    for table, rep in zip(tables, reports):
        _same_report(rep, classify(PFunction(dom, table)))


def _stack_cases(rng):
    """(domain, tables): every Tr(a x^2 + c x) on F_25, whose pairing is not
    the identity, and random tables; quadratics a x^2 + c x on one digit at
    p = 23 (the one-hot stage) and a x1^2 + c x1 x2 + x2^2 on two (and the
    gathered stage), with random tables; and ndcor functions on F_27 x F_3^2
    and F_243 x F_3^2, among them non-weakly regular ones with a bent and with
    a non-bent dual, beside Tr(x^2) + y1*y2, the zero table and a random one,
    so that only some members have their duals stacked."""
    F25 = make_field(5, 2, (2, 0, 1))
    quad = [from_expr(F25, f"Tr({a} x^2) + Tr({c} x)").table for a in range(5) for c in range(5)]
    yield Domain.field(F25), quad + [random_function(Domain.field(F25), rng).table for _ in range(9)]
    p = 23
    x = np.arange(p)
    dom = Domain.vec(p, 1)
    yield dom, [(a * x * x + c * x) % p for a in range(p) for c in (0, 5)] + [rng.integers(0, p, p)]
    dom = Domain.vec(p, 2)
    x1, x2 = dom.digits_matrix().T
    tables = [(a * x1 * x1 + c * x1 * x2 + x2 * x2) % p for a in (0, 1, 7) for c in (0, 2, 3)]
    yield dom, tables + [random_function(dom, rng).table for _ in range(3)]
    for m, modulus, alphas, betas in ((3, None, range(3, 27), range(9, 27)),
                                      (5, (1, 0, 0, 0, 2, 1), [3], range(130, 140))):
        ctx = make_field(3, m, modulus)
        pairs = [(a, b) for a in alphas for b in betas if _independent(ctx, a, b)][:40]
        ndcor = [_ndcor(3, m, modulus, a, b) for a, b in pairs]
        dom = ndcor[0].domain
        others = [direct_sum(from_expr(ctx, "Tr(x^2)"), coordinate_product(3)), zero_function(dom)]
        yield dom, [f.table for f in ndcor + others] + [random_function(dom, rng).table]


def test_stack_of_many_equals_its_stacks_of_one(rng):
    """Each mixed stack, member by member, against classify and, on at most
    25 points, against walsh_naive."""
    seen = set()
    for dom, tables in _stack_cases(rng):
        reports = classify_stack(dom, np.array(tables))
        for table, rep in zip(tables, reports):
            f = PFunction(dom, table)
            _same_report(rep, classify(f))
            if dom.size <= 25:
                assert np.array_equal(rep.spectrum.values, walsh_naive(f).values)
            seen.add((rep.regularity, rep.dual_is_bent))
    assert seen == {
        (NOT_BENT, None), (REGULAR, True), (WEAKLY_REGULAR, True),
        (NON_WEAKLY_REGULAR, False), (NON_WEAKLY_REGULAR, True),
    }


@pytest.mark.parametrize(
    "p, n", [(3, 9), (5, 6), (53, 2), (101, 1)], ids=["v3_9", "v5_6", "v53_2", "v101_1"]
)
def test_sum_of_squares_spectrum_and_dual_across_chunks(p, n):
    """f(x) = sum x_i^2 is bent with W(b) = g_p^n e^(-sum b_i^2 / 4) per
    coordinate Gauss sum, so the dual is -(1/4) sum b_i^2 and the unit is
    legendre(-1, p)^(n // 2) everywhere."""
    dom = Domain.vec(p, n)
    D = dom.digits_matrix()
    f = PFunction(dom, (D * D).sum(axis=1) % p)
    W = walsh_fast(f)
    assert is_bent(W)
    dual, units = extract_dual(W)
    quarter = pow(4, -1, p)
    assert np.array_equal(dual.table, (-quarter * (D * D).sum(axis=1)) % p)
    assert np.all(units == legendre(-1, p) ** (n // 2))


# ---- the candidate match against the definition |W(b)|^2 = p^n ---------------------------


def _cycint_candidates(p: int, n: int) -> dict[tuple, tuple[int, int]]:
    """Coefficients of u * P_n * e^c, built by CycInt products, -> (u, c)."""
    P = bent_normalizer(p, n)
    return {(u * (P * root_power(p, c))).coeffs: (u, c) for u in (1, -1) for c in range(p)}


def _definition_bad(W: WalshSpectrum) -> np.ndarray:
    """Rows with |W(b)|^2 != p^n: abs_sq_rows where its float64 sums are exact,
    CycInt products in Python integers on rows with entries beyond 2^16."""
    p, n = W.domain.p, W.domain.n_total
    big = ((W.values > 2**16) | (W.values < -(2**16))).any(axis=1)
    rest = WalshSpectrum(W.domain, np.where(big[:, None], 0, W.values))
    target = np.zeros(p - 1, dtype=np.int64)
    target[0] = p**n
    bad = (rest.abs_sq_rows() != target).any(axis=1)
    for b in np.flatnonzero(big):
        bad[b] = CycInt(p, W.values[b]).abs_sq() != p**n
    return bad


def _check_match_against_definition(W: WalshSpectrum, cands: dict) -> bool:
    """is_bent and extract_dual agree with the definition and the candidates;
    returns the verdict."""
    rows = [tuple(r) for r in W.values.tolist()]
    bad = _definition_bad(W)
    # the theorem: |x|^2 = p^n exactly for the 2p candidates
    assert bad.tolist() == [r not in cands for r in rows]
    if bad.any():
        witness = int(np.argmax(bad))
        assert is_bent(W) == (False, witness)
        with pytest.raises(DualExtractionError, match=rf"at b={witness} ") as exc:
            extract_dual(W)
        assert exc.value.witness == witness
        return False
    assert is_bent(W) == (True, None)
    dual, units = extract_dual(W)
    assert list(zip(units.tolist(), dual.table.tolist())) == [cands[r] for r in rows]
    return True


def _bent_example(dom: Domain, rng) -> PFunction:
    """Maiorana-McFarland x . pi(y) + g(y) on even n, with a random
    permutation pi and a random g; sum of squares plus a random linear term
    on odd n."""
    p, n = dom.p, dom.n_total
    D = dom.digits_matrix()
    if n % 2:
        return PFunction(dom, ((D * D).sum(axis=1) + D @ rng.integers(0, p, n)) % p)
    k = n // 2
    half = Domain.vec(p, k).digits_matrix()
    y = D[:, k:] @ (p ** np.arange(k))
    pi_y = half[rng.permutation(p**k)][y]
    g = rng.integers(0, p, p**k)[y]
    return PFunction(dom, ((D[:, :k] * pi_y).sum(axis=1) + g) % p)


def test_classify_memory_is_the_rows_and_three_bytes_a_point(rng):
    """classify of a bent 3^12 table holds its float32 spectrum rows and, at
    most, 3 B a point and 1 MiB besides: the dual's table and the unit map,
    one byte a point each, and a match block's casts and codes.  With an
    int64 dual table it peaked at 8.9 MiB."""
    f = _bent_example(Domain.vec(3, 12), rng)
    report, peak = traced_peak(lambda: classify(f))
    assert report.regularity == REGULAR and report.dual.table.dtype == np.int8
    N = f.domain.size
    assert peak <= N * (f.p - 1) * 4 + 3 * N + (1 << 20)


@pytest.mark.parametrize(
    "p, ns",
    [(3, (1, 2, 5, 6)), (5, (1, 2, 3, 4)), (7, (1, 2, 3)), (11, (1, 2)), (13, (1, 2)),
     (23, (1, 2)), (53, (1, 2)), (101, (1, 2))],
)
def test_candidate_match_agrees_with_the_definition(p, ns, rng):
    i64 = np.iinfo(np.int64)
    for n in ns:
        dom = Domain.vec(p, n)
        cands = _cycint_candidates(p, n)
        cand_rows = list(cands)
        _check_match_against_definition(walsh_fast(random_function(dom, rng)), cands)
        W = walsh_fast(_bent_example(dom, rng))
        assert _check_match_against_definition(W, cands)
        k, k2 = sorted(rng.choice(dom.size, size=2, replace=False))
        other = cand_rows[(cand_rows.index(tuple(W.values[k].tolist())) + 1) % len(cand_rows)]
        conjugate = CycInt(p, W.values[k]).conj().coeffs
        tampers = {
            "another candidate": {k: other},
            "a conjugate": {k: conjugate, k2: conjugate},
            "|x|^2 != p^n": {k2: (W[k2] * root_power(p, 1) + 1).coeffs},
            "twice a candidate": {k: 2 * W.values[k]},
            "+-10^6": {k: [10**6] + [0] * (p - 2), k2: [-(10**6)] + [3] * (p - 2)},
            "int64 extremes": {k: [i64.max] * (p - 1), k2: [i64.min] + [0] * (p - 2)},
        }
        for kind, rows in tampers.items():
            values = W.values.copy()
            for b, row in rows.items():
                values[b] = row
            verdict = _check_match_against_definition(WalshSpectrum(dom, values), cands)
            assert verdict == (kind in ("another candidate", "a conjugate")), (kind, p, n)


def test_candidate_codes_are_distinct_below_257():
    """Codes are linear mod 2^64 and P_(n+2) = p * P_n with p odd, so n = 1
    and n = 2 cover every n; p <= 256 covers every p that walsh_fast takes
    with n >= 2."""
    for p in filter(is_odd_prime, range(3, 257)):
        for n in (1, 2):
            assert np.unique(_candidate_table(p, n)[0]).size == 2 * p


def test_candidate_table_memory_is_linear_in_p():
    """The table keeps P_n's p counts and each candidate's (code, u, c), not
    the 2p candidate rows: at p = 2003 those rows held 61 MiB."""
    _candidate_table.cache_clear()
    table, peak = traced_peak(lambda: _candidate_table(2003, 1))
    assert peak < 1 << 20
    assert [len(arr) for arr in table] == [2 * 2003, 2 * 2003, 2 * 2003, 2003]


# ---- classification of the standard examples -----------------------------------------------


def test_product_function_is_regular():
    f = product_function(3, 1)  # y1*y2 on F_3^2
    report = classify(f)
    assert report.is_bent
    assert report.regularity == REGULAR
    assert report.constant_unit == 1
    assert report.zeta == "+1"
    assert report.dual_is_bent is True
    # dual of y1*y2 is -y1*y2
    assert np.array_equal(report.dual.table, (-f.table) % 3)
    rel = weak_regular_dual_relation(f, report)
    assert rel.ok


def test_quadratic_trace_on_f27_is_weakly_regular():
    f = from_expr(F27, "Tr(x^2)")
    report = classify(f)
    assert report.is_bent
    assert report.regularity == WEAKLY_REGULAR
    assert report.constant_unit == -1
    assert report.zeta == "-i"  # odd n, p = 3 mod 4: the unit is u * i
    assert report.dual_is_bent is True
    assert not report.has_non_bent_dual()
    assert np.array_equal(report.dual.table, (2 * f.table) % 3)
    assert weak_regular_dual_relation(f, report).ok


def test_quadratic_trace_on_f125_is_regular():
    f = from_expr(F125, "Tr(x^2)")
    report = classify(f)
    assert report.is_bent
    assert report.regularity == REGULAR
    assert report.zeta == "+1"
    # -1/4 = 1 mod 5, so the dual is the function itself
    assert np.array_equal(report.dual.table, f.table)
    assert weak_regular_dual_relation(f, report).ok


def test_classify_json_shape():
    blob = classify(product_function(3, 1)).to_json()
    assert blob["bent"] is True
    assert blob["regularity"] == REGULAR
    assert blob["constant_unit"] == "+1"
    assert blob["dual_bent"] is True
    assert blob["witnesses"] == []
    assert blob["spectrum_histogram"] == {"9": 9}
    blob0 = classify(zero_function(Domain.vec(3, 2))).to_json()
    assert blob0["bent"] is False
    assert blob0["witnesses"] == [{"kind": "not_bent_at", "index": 0}]


def _ndcor(p, m, modulus, a, b):
    ctx = make_field(p, m, modulus)
    return ndcor_function(NdCorSpec(ctx, ctx.element(a), ctx.element(b)))


def _nonsquare_trace(p, m, modulus):
    """Tr(a x^2) for the first non-square a of F_{p^m}."""
    ctx = make_field(p, m, modulus)
    return monomial_bent(ctx, next(a for a in range(1, ctx.q) if ctx.eta_idx(a) == -1), 0)


@pytest.mark.parametrize(
    "build, regularity, dual_bent",
    [
        (lambda: coordinate_product(3), REGULAR, True),
        (lambda: from_expr(F27, "Tr(x^2)"), WEAKLY_REGULAR, True),
        (lambda: _nonsquare_trace(3, 4, None), REGULAR, True),
        (lambda: sporadic("g2", make_field(3, 4), 0), NON_WEAKLY_REGULAR, False),
        (lambda: _ndcor(3, 3, None, 3, 9), NON_WEAKLY_REGULAR, False),
        (lambda: _ndcor(3, 5, (1, 0, 0, 0, 2, 1), 3, 137), NON_WEAKLY_REGULAR, True),
        (lambda: _ndcor(3, 6, (1, 0, 0, 0, 1, 1, 1), 4, 423), REGULAR, True),
        (lambda: _nonsquare_trace(5, 2, (2, 0, 1)), REGULAR, True),
        (lambda: from_expr(F125, "Tr(x^2)"), REGULAR, True),
        (lambda: _nonsquare_trace(5, 3, None), WEAKLY_REGULAR, True),
        (lambda: _ndcor(5, 3, None, 5, 25), NON_WEAKLY_REGULAR, False),
        (lambda: _ndcor(5, 4, (2, 0, 0, 0, 1), 5, 25), NON_WEAKLY_REGULAR, False),
        (lambda: coordinate_product(7), REGULAR, True),
        (lambda: _nonsquare_trace(7, 2, (1, 0, 1)), WEAKLY_REGULAR, True),
        (lambda: _nonsquare_trace(7, 3, (1, 0, 1, 1)), WEAKLY_REGULAR, True),
        (lambda: _ndcor(7, 3, (1, 0, 1, 1), 7, 49), NON_WEAKLY_REGULAR, False),
    ],
    ids=[
        "p3-n2-y1y2", "p3-n3-trace", "p3-n4-nonsquare", "p3-n4-g2", "p3-n5-ndcor",
        "p3-n7-ndcor-dual-bent", "p3-n8-ndcor-regular", "p5-n2-nonsquare", "p5-n3-trace",
        "p5-n3-nonsquare", "p5-n5-ndcor", "p5-n6-ndcor", "p7-n2-y1y2", "p7-n2-nonsquare",
        "p7-n3-nonsquare", "p7-n5-ndcor",
    ],
)
def test_bent_histogram_equals_the_abs_sq_histogram(build, regularity, dual_bent):
    """classify writes a bent spectrum's histogram as {p^n: N} from the
    verdict; it must equal the one formed from every |W(b)|^2."""
    f = build()
    rep = classify(f)
    assert (rep.is_bent, rep.regularity, rep.dual_is_bent) == (True, regularity, dual_bent)
    assert rep.to_json()["spectrum_histogram"] == walsh_fast(f).histogram_json()


def _every_function(dom: Domain):
    N = dom.size
    for table in np.arange(dom.p**N)[:, None] // dom.p ** np.arange(N) % dom.p:
        yield PFunction(dom, table)


def _dual_oracle_cases():
    """Every function on F_3^2, F_5 and F_3, every Tr(a x^2) on F_27 (an
    imaginary P_n) and F_125, every F_27 ndcor pair, and an F_243 ndcor
    function whose dual is bent though it is not weakly regular."""
    for dom in (Domain.vec(3, 2), Domain.vec(5, 1), Domain.vec(3, 1)):
        yield from _every_function(dom)
    for ctx in (F27, F125):
        for a in range(1, ctx.q):
            yield monomial_bent(ctx, a, 0)
    for a in range(1, F27.q):
        for b in range(1, F27.q):
            if _independent(F27, np.array([a]), np.array([b]))[0]:
                yield _ndcor(3, 3, None, a, b)
    yield _ndcor(3, 5, (1, 0, 0, 0, 2, 1), 3, 137)


def test_dual_bent_verdict_equals_the_duals_transform():
    """classify decides a weakly regular f's dual bent by the inversion
    formula, without its transform; the transform must agree, and so must
    weak_regular_dual_relation, which does transform the dual."""
    seen = dict.fromkeys((REGULAR, WEAKLY_REGULAR, NON_WEAKLY_REGULAR), 0)
    for f in _dual_oracle_cases():
        rep = classify(f)
        if not rep.is_bent:
            continue
        seen[rep.regularity] += 1
        assert rep.dual_is_bent == bool(is_bent(walsh_fast(rep.dual))), f.table
        if rep.regularity != NON_WEAKLY_REGULAR:
            assert weak_regular_dual_relation(f, rep).ok, f.table
    # bent: 486 on F_3^2, 100 on F_5, 18 on F_3, 26 + 124 traces, 432 + 1 ndcor
    assert sum(seen.values()) == 486 + 100 + 18 + 150 + 433
    assert min(seen.values()) > 0


def test_dual_relation_requires_weak_regularity(rng):
    f = zero_function(Domain.vec(3, 2))
    report = classify(f)
    with pytest.raises(ValueError):
        weak_regular_dual_relation(f, report)


def test_dual_relation_detects_tampered_dual():
    f = product_function(3, 1)
    report = classify(f)
    # swap in a wrong dual: the relation must fail with a witness
    wrong = PFunction(f.domain, (report.dual.table + 1) % 3)
    tampered = ClassReport(
        p=report.p, domain=report.domain, is_bent=True, regularity=report.regularity,
        spectrum=report.spectrum, dual=wrong, unit_map=report.unit_map,
        constant_unit=report.constant_unit, zeta=report.zeta,
    )
    rel = weak_regular_dual_relation(f, tampered)
    assert not rel.ok and rel.witness is not None


# ---- quadratic families: unit formula across fields and exponents ---------------------------


QUADRATIC_FIELDS = [
    make_field(3, 1),
    make_field(3, 2, (1, 0, 1)),
    make_field(3, 3),
    make_field(3, 4),
    make_field(5, 1),
    make_field(5, 2, (2, 0, 1)),
    make_field(5, 3),
    make_field(5, 4, (2, 0, 0, 0, 1)),
]


def monomial_unit(ctx, alpha_idx: int, m: int) -> int:
    """Expected constant unit of Tr(alpha x^(p^k+1)) for valid k."""
    e = ctx.eta_idx(alpha_idx)
    if ctx.p % 4 == 1:
        return e * (-1) ** (m - 1)
    if m % 2 == 0:
        return -e * (-1) ** (m // 2)
    return e * (-1) ** ((m - 1) // 2)


def valid_monomial_exponents(m: int) -> list[int]:
    return [k for k in range(m + 1) if (m // int(np.gcd(m, k))) % 2 == 1]


@pytest.mark.parametrize("ctx", QUADRATIC_FIELDS, ids=lambda c: f"F_{c.p}^{c.m}")
def test_quadratic_monomials_are_weakly_regular_with_unit(ctx, rng):
    m = ctx.m
    ks = valid_monomial_exponents(m)
    assert ks, "every field here admits at least one valid exponent"
    alphas = {int(a) for a in rng.integers(1, ctx.q, size=20)}
    for k in ks:
        for a in alphas:
            f = monomial_bent(ctx, a, k)
            report = classify(f)
            assert report.is_bent, (ctx, k, a)
            assert report.regularity in (REGULAR, WEAKLY_REGULAR)
            assert report.constant_unit == monomial_unit(ctx, a, m), (ctx.p, m, k, a)
            assert report.dual_is_bent is True
            assert weak_regular_dual_relation(f, report).ok


@pytest.mark.parametrize("ctx", [f for f in QUADRATIC_FIELDS if f.p == 3], ids=lambda c: f"F_3^{c.m}")
def test_half_exponent_family_matches_unit_formula(ctx, rng):
    m = ctx.m
    ks = [k for k in range(1, 2 * m) if np.gcd(2 * m, k) == 1]
    alphas = {int(a) for a in rng.integers(1, ctx.q, size=20)}
    for k in ks:
        for a in alphas:
            f = cm_bent(ctx, a, k)
            report = classify(f)
            assert report.is_bent, (ctx, k, a)
            assert report.regularity in (REGULAR, WEAKLY_REGULAR)
            assert report.constant_unit == monomial_unit(ctx, a, m), (ctx.p, m, k, a)
            assert weak_regular_dual_relation(f, report).ok


def test_monomial_dual_formula(rng):
    # for G(x) = Tr(L x^2) the dual is y -> -Tr(y^2 / (4 L))
    for ctx in (F27, F125, make_field(3, 4)):
        lam = int(rng.integers(1, ctx.q))
        f = monomial_bent(ctx, lam, 0)
        report = classify(f)
        inv4l = ctx.inv_idx(ctx.mul_idx(ctx.from_coeffs([4 % ctx.p]).index, lam))
        expected = [
            (-ctx.trace_idx(ctx.mul_idx(ctx.pow_idx(y, 2), inv4l))) % ctx.p
            for y in range(ctx.q)
        ]
        assert list(report.dual.table) == expected


# ---- mixed-unit (non weakly regular) detection ----------------------------------------------


def test_eta_of_coefficient_flips_the_unit():
    a_plus = next(a for a in range(1, 27) if F27.eta_idx(a) == 1)
    a_minus = next(a for a in range(1, 27) if F27.eta_idx(a) == -1)
    u_plus = classify(monomial_bent(F27, a_plus, 0)).constant_unit
    u_minus = classify(monomial_bent(F27, a_minus, 0)).constant_unit
    assert u_plus == -u_minus


def test_non_weakly_regular_bent_with_non_bent_dual():
    w = F27.w
    spec = NdCorSpec(ctx=F27, alpha=w, beta=w**2 + 1)
    report = classify(ndcor_function(spec))
    assert report.is_bent
    assert report.regularity == NON_WEAKLY_REGULAR
    assert report.constant_unit is None and report.zeta is None
    assert report.dual_is_bent is False
    assert "unit_mismatch_at" in report.witnesses
    assert "dual_not_bent_at" in report.witnesses
    assert report.has_non_bent_dual()
    blob = report.to_json()
    assert blob["regularity"] == NON_WEAKLY_REGULAR
    assert "constant_unit" not in blob
    with pytest.raises(ValueError):
        weak_regular_dual_relation(ndcor_function(spec), report)


def test_verdict_truthiness():
    f = product_function(3, 1)
    v = is_bent(walsh_fast(f))
    assert v and v.witness is None
    assert bool(v) is True
