"""Walsh transforms: fast path vs naive path, energy and inversion identities."""
import itertools
import json
import math

import numpy as np
import pytest
from conftest import traced_peak, translate

import pbent.walsh as walsh
from pbent.bent import extract_dual, is_bent
from pbent.cyclo import CycInt, root_power
from pbent.field import BUILTIN_MODULI, make_field
from pbent.pfunc import (
    Domain,
    FieldPart,
    PFunction,
    VecPart,
    from_expr,
    random_function,
    zero_function,
)
from pbent.walsh import (
    _CHUNK_MACS,
    WalshSpectrum,
    _dft,
    _stage_kernel,
    mul_rows,
    poisson_check,
    rotate_rows,
    walsh_fast,
    walsh_naive,
)

F27 = make_field(3, 3)
F9 = make_field(3, 2, (1, 0, 1))
F25 = make_field(5, 2, (2, 0, 1))
F49 = make_field(7, 2, (1, 0, 1))


def spectra_equal(a: WalshSpectrum, b: WalshSpectrum) -> bool:
    """Equal domains and int64 values; a's values are one C-contiguous int64
    array, the same on every read."""
    values = a.values
    assert values.dtype == np.int64 and values.flags.c_contiguous and a.values is values
    return a.domain == b.domain and np.array_equal(values, b.values)


# ---- exhaustive agreement on the smallest domains ------------------------------------


def test_fast_equals_naive_exhaustive_dim1():
    dom = Domain.vec(3, 1)
    for table in itertools.product(range(3), repeat=3):
        f = PFunction(dom, table)
        assert spectra_equal(walsh_fast(f), walsh_naive(f)), table


def test_fast_equals_naive_exhaustive_dim1_field():
    dom = Domain.field(make_field(3, 1))
    for table in itertools.product(range(3), repeat=3):
        f = PFunction(dom, table)
        assert spectra_equal(walsh_fast(f), walsh_naive(f)), table


def test_fast_equals_naive_exhaustive_dim2():
    dom = Domain.vec(3, 2)
    for table in itertools.product(range(3), repeat=9):
        f = PFunction(dom, table)
        assert spectra_equal(walsh_fast(f), walsh_naive(f)), table


# ---- randomized agreement on larger and mixed domains ---------------------------------


RANDOM_DOMAINS = [
    Domain.vec(3, 3),
    Domain.vec(3, 4),
    Domain.vec(5, 2),
    Domain.field(F27),
    Domain.field(F25),
    Domain.field(F9).extend(VecPart(3, 1)),
    Domain([VecPart(5, 1), FieldPart(F25)]),
    Domain.vec(7, 2),
    Domain.field(F49),
]
RANDOM_IDS = ["v3_3", "v3_4", "v5_2", "f27", "f25", "f9v1", "v1f25", "v7_2", "f49"]


@pytest.mark.parametrize("dom", RANDOM_DOMAINS, ids=RANDOM_IDS)
def test_fast_equals_naive_random(dom, rng):
    for _ in range(20):
        f = random_function(dom, rng)
        assert spectra_equal(walsh_fast(f), walsh_naive(f))


# The stage is a kernel product up to p = 19 and a gather above it; these
# straddle the switch and reach a prime far past it.
LARGE_PRIME_DOMAINS = [
    Domain.vec(19, 2),
    Domain.vec(23, 2),
    Domain.field(make_field(23, 2, (1, 0, 1))),
    Domain.vec(101, 1),
]


@pytest.mark.parametrize("dom", LARGE_PRIME_DOMAINS, ids=["v19_2", "v23_2", "f529", "v101_1"])
def test_fast_equals_naive_large_primes(dom, rng):
    for _ in range(2):
        f = random_function(dom, rng)
        W = walsh_fast(f)
        assert spectra_equal(W, walsh_naive(f))
        assert poisson_check(f, W)


# walsh_fast's first stage on these is a scatter of N*p counts; the old
# gathered stage took 9.5 s on 1009 points, the naive oracle about 1 s.
@pytest.mark.parametrize("p", [211, 1009])
def test_fast_equals_naive_one_digit_large_primes(p, rng):
    f = random_function(Domain.vec(p, 1), rng)
    W = walsh_fast(f)
    assert spectra_equal(W, walsh_naive(f))
    assert W.parseval_ok()


# Gram matrices that are not the identity: walsh_fast scatters the input
# table through walsh_perm instead of re-indexing the output.
F343 = make_field(7, 3, (1, 1, 0, 1))
PAIRING_DOMAINS = [
    Domain.field(make_field(5, 3)),
    Domain.field(F343),
    Domain([VecPart(5, 1), FieldPart(F25), VecPart(5, 1)]),
    Domain.field(F49).extend(VecPart(7, 1)),
]


@pytest.mark.parametrize("dom", PAIRING_DOMAINS, ids=["f125", "f343", "v1f25v1", "f49v1"])
def test_fast_equals_naive_through_the_pairing(dom, rng):
    C = dom.gram()
    assert not np.array_equal(C, np.eye(len(C), dtype=C.dtype))
    f = random_function(dom, rng)
    W = walsh_fast(f)
    assert spectra_equal(W, walsh_naive(f))
    assert poisson_check(f, W)


def _stage_product_by_transpose(x, K):
    """The product stage in place on the [a, k, b, coeff] view, as one
    transposed copy of the whole array times the kernel."""
    A, R, B, c = x.shape
    out = x.transpose(0, 2, 1, 3).reshape(-1, len(K)) @ K
    x[...] = out.reshape(A, B, R, c).transpose(0, 2, 1, 3)


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
def test_product_stage_matches_transpose_copy(p, sign, rng, monkeypatch):
    """Stages run on b = p^d for d = 0, r, 2r, ... (r digits a stage): the
    low ones take several whole b ranges per chunk, the top one runs of b
    within one a, over at least three chunks with a partial last one.  At
    p = 3 an odd digit count also runs a one-digit stage last.  Each case
    runs in float32, walsh_fast's stages, and float64, Poisson's."""
    r = walsh._P3_STAGE_DIGITS if p == 3 else 1
    rows = max(1, _CHUNK_MACS // _stage_kernel(p, sign, r, np.float64).size)
    assert rows > 1, "stage 0 should take several a per chunk"
    n = r
    while p**n <= 2 * rows:
        n += r
    assert p**n % rows, "the last chunk should be partial"
    for digits, dtype in itertools.product({n + r, n + 1}, [np.float32, np.float64]):
        x = rng.integers(-50, 51, size=(p**digits, p - 1)).astype(dtype)
        got = _dft(x.copy(), p, digits, sign)
        assert got.dtype == dtype
        with monkeypatch.context() as patch:
            patch.setattr(walsh, "_stage_product", _stage_product_by_transpose)
            assert np.array_equal(got, _dft(x, p, digits, sign))


def _sum_of_squares(dom: Domain) -> PFunction:
    """x -> sum_i x_i^2 on a vector domain, a bent function."""
    index, table = np.arange(dom.size), np.zeros(dom.size, dtype=np.int64)
    for _ in range(dom.n_total):
        table += (index % dom.p) ** 2
        index //= dom.p
    return PFunction(dom, table % dom.p)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _sum_of_squares(Domain.vec(3, 12)),
        lambda: from_expr(make_field(5, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1)), "Tr(2x^2) + Tr(x)"),
    ],
    ids=["v3_12", "f5^8"],
)
def test_transform_and_dual_memory(make):
    """walsh_fast runs its stages in the one N x (p-1) float32 array that its
    spectrum keeps, besides chunk buffers and a uint8 copy of the table in
    pairing order; extract_dual holds its two outputs, and casts and matches
    a block of rows at a time, with no per-row position array.  When the
    transform returned int64 values it peaked at 8.6 MiB (v3_12) and
    15.4 MiB (f5^8), and with an int64 copy of the table at 9.0 MiB (f5^8);
    extract_dual held one int64 position and one int64 unit per row."""
    f = make()
    f.domain.walsh_perm()
    W, peak = traced_peak(lambda: walsh_fast(f))
    assert W.rows.dtype == np.float32
    assert peak <= f.domain.size * ((f.p - 1) * 4 + 1) + (1 << 20)
    (dual, units), peak = traced_peak(lambda: extract_dual(W))
    assert units.dtype == np.int8
    assert peak <= dual.table.nbytes + units.nbytes + (1 << 20)


@pytest.mark.parametrize("key", sorted(BUILTIN_MODULI), ids=lambda k: f"F{k[0]}^{k[1]}")
def test_builtin_fields_have_symmetric_gram(key):
    C = Domain.field(make_field(*key)).gram()
    assert np.array_equal(C, C.T)


def test_walsh_fast_asserts_a_symmetric_pairing(rng, monkeypatch):
    dom = Domain.field(F25)
    f = random_function(dom, rng)
    monkeypatch.setattr(dom, "gram", lambda: np.array([[1, 1], [0, 1]]))
    with pytest.raises(AssertionError):
        walsh_fast(f)


# ---- the canonical-coefficient core and its exactness bounds --------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
def test_stage_kernel_blocks_are_root_multiplication(p):
    """Row (k, i), column (j, s) of a stage kernel holds coefficient s of
    e^i * e^(sign * j.k), for one digit and, at p <= 5, for two, in float32
    and in float64."""
    units = [CycInt(p, np.eye(p - 1, dtype=np.int64)[i]) for i in range(p - 1)]
    for digits, dtype in itertools.product((1, 2) if p <= 5 else (1,), [np.float32, np.float64]):
        vectors = list(itertools.product(range(p), repeat=digits))
        for sign in (-1, 1):
            K = _stage_kernel(p, sign, digits, dtype)
            assert K.dtype == dtype
            K = K.reshape(p**digits, p - 1, p**digits, p - 1)
            for k in range(p**digits):
                for j in range(p**digits):
                    r = root_power(p, sign * sum(a * b for a, b in zip(vectors[k], vectors[j])))
                    expected = [(u * r).coeffs for u in units]
                    assert np.array_equal(K[k, :, j, :], expected), (digits, sign, k, j)


def _max_abs_sq_coeff(p: int) -> int:
    """Largest |c| with (p-1)^2 * c^2 < 2^53, the asserted |W|^2 bound."""
    return math.isqrt(((1 << 53) - 1) // (p - 1) ** 2)


# 3..7 use the product form, 23 and 53 the lag-gather form
@pytest.mark.parametrize("p", [3, 5, 7, 23, 53])
def test_abs_sq_rows_match_ring_arithmetic(p, rng):
    dom = Domain.vec(p, 2 if p < 23 else 1)
    top = _max_abs_sq_coeff(p)
    values = rng.integers(-top, top + 1, size=(dom.size, p - 1))
    values[0] = top  # every coefficient at the bound
    values[1] = -top
    values[2] = top * (-1) ** np.arange(p - 1)
    values[3 : dom.size // 2] = rng.integers(-9, 10, size=(dom.size // 2 - 3, p - 1))
    rows = WalshSpectrum(dom, values).abs_sq_rows()
    for b in range(dom.size):
        assert CycInt(p, rows[b]) == CycInt(p, values[b]).abs_sq(), b


@pytest.mark.parametrize("p", [3, 23])
def test_abs_sq_asserts_its_bound(p):
    dom = Domain.vec(p, 1)
    values = np.zeros((p, p - 1), dtype=np.int64)
    values[1, 0] = _max_abs_sq_coeff(p) + 1
    with pytest.raises(AssertionError):
        WalshSpectrum(dom, values).abs_sq_rows()


@pytest.mark.parametrize("dom", [Domain.vec(3, 2), Domain.vec(23, 1)], ids=["v3_2", "v23_1"])
def test_stages_assert_their_bound(dom):
    """Partial sums stay within 4 * N * max|input| < 2^53."""
    f = zero_function(dom)
    top = ((1 << 53) - 1) // (4 * dom.size)
    values = np.zeros((dom.size, dom.p - 1), dtype=np.int64)
    values[1, 0] = top
    assert not poisson_check(f, WalshSpectrum(dom, values))
    values[1, 0] = top + 1
    with pytest.raises(AssertionError):
        poisson_check(f, WalshSpectrum(dom, values))


@pytest.mark.parametrize("p,stages", [(3, 4), (23, 2)])
def test_float32_stages_assert_their_bound(p, stages, rng):
    """float32 stages need 4 * p^stages * max|input| < 2^24: at the largest
    admitted input they equal the float64 stages, one more is refused.  On
    one row (no stages) the refused input has 4 * N * A = 2^24 exactly."""
    top = ((1 << 24) - 1) // (4 * p**stages)
    x = rng.integers(-top, top + 1, size=(p**stages, p - 1))
    x[0], x[1], x[2] = top, -top, top * (-1) ** np.arange(p - 1)
    got = _dft(x.astype(np.float32), p, stages, -1)
    assert np.array_equal(got, _dft(x.astype(np.float64), p, stages, -1))
    x[0, 0] = top + 1
    with pytest.raises(AssertionError):
        _dft(x.astype(np.float32), p, stages, -1)
    with pytest.raises(AssertionError):
        _dft(np.full((1, p - 1), 1 << 22, dtype=np.float32), p, 0, -1)
    _dft(np.full((1, p - 1), (1 << 22) - 1, dtype=np.float32), p, 0, -1)


@pytest.mark.parametrize(
    "dom", [Domain.vec(3, 4), Domain.field(F25), Domain.vec(23, 2)], ids=["v3_4", "f25", "v23_2"]
)
def test_walsh_fast_values_are_int64(dom, rng):
    """walsh_fast's spectrum keeps float32 rows; its values are their int64
    widening, read once and then kept in place of the rows."""
    f = random_function(dom, rng)
    W = walsh_fast(f)
    rows = W.rows
    assert rows.dtype == np.float32
    assert spectra_equal(W, walsh_naive(f))
    assert np.array_equal(W.values, rows) and W.rows is W.values


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_float_rows_widen_exactly_and_refuse_fractions(dtype, rng):
    """Integral float rows up to +-2^24 widen to the same int64 values; a
    row that is not integral is refused by values, W[b] and the bent match,
    not truncated to a candidate."""
    dom = Domain.field(F9)
    ints = rng.integers(-(1 << 24), (1 << 24) + 1, size=(dom.size, 2))
    ints[0], ints[1] = 1 << 24, -(1 << 24)
    W = WalshSpectrum(dom, ints.astype(dtype))
    assert W[1] == CycInt(3, ints[1])
    assert np.array_equal(W.values, ints)
    rows = walsh_fast(from_expr(F9, "Tr(x^2)")).values.astype(dtype)
    assert is_bent(WalshSpectrum(dom, rows))
    rows[4, 1] += np.copysign(0.5, rows[4, 1])  # truncates back to the candidate
    assert is_bent(WalshSpectrum(dom, np.trunc(rows)))
    W = WalshSpectrum(dom, rows)
    for read in (lambda: W.values, lambda: W[4], lambda: is_bent(W), lambda: extract_dual(W)):
        with pytest.raises(ValueError, match="not integral"):
            read()


# ---- energy and inversion identities ----------------------------------------------------


PROPERTY_DOMAINS = [
    Domain.vec(3, 2),
    Domain.vec(3, 5),
    Domain.vec(5, 3),
    Domain.field(make_field(3, 4)),
    Domain.field(F27).extend(VecPart(3, 2)),
    Domain.field(make_field(5, 3)),
    Domain.field(F25).extend(VecPart(5, 1)),
]
PROPERTY_IDS = ["v3_2", "v3_5", "v5_3", "f81", "f27v2", "f125", "f25v1"]


@pytest.mark.parametrize("dom", PROPERTY_DOMAINS, ids=PROPERTY_IDS)
def test_parseval_and_poisson_hold(dom, rng):
    assert dom.n_total <= 5
    for _ in range(100):
        f = random_function(dom, rng)
        W = walsh_fast(f)
        assert W.parseval_ok()
        assert poisson_check(f, W)


def test_poisson_rejects_foreign_spectrum(rng):
    f = random_function(Domain.vec(3, 2), rng)
    g = random_function(Domain.vec(3, 3), rng)
    with pytest.raises(ValueError):
        poisson_check(f, walsh_fast(g))


def test_poisson_detects_wrong_values(rng):
    f = random_function(Domain.vec(3, 2), rng)
    W = walsh_fast(f)
    tampered = W.values.copy()
    tampered[0, 0] += 1
    assert not poisson_check(f, WalshSpectrum(f.domain, tampered))


# ---- structural spot checks ---------------------------------------------------------------


def test_zero_function_spectrum_is_delta():
    dom = Domain.vec(3, 3)
    W = walsh_fast(zero_function(dom))
    assert W[0] == CycInt.from_int(3, dom.size)
    for b in range(1, dom.size):
        assert W[b] == CycInt.zero(3)


@pytest.mark.parametrize("dom", RANDOM_DOMAINS, ids=RANDOM_IDS)
def test_linear_character_spectrum_is_shifted_delta(dom, rng):
    a = int(rng.integers(0, dom.size))
    f = PFunction(dom, [dom.inner_product(a, x) for x in range(dom.size)])
    W = walsh_fast(f)
    for b in range(dom.size):
        expected = CycInt.from_int(dom.p, dom.size if b == a else 0)
        assert W[b] == expected


# Large enough that every radix-p stage runs over several row chunks.
CHUNKED_DOMAINS = [Domain.vec(3, 9), Domain.vec(5, 6)]


@pytest.mark.parametrize("dom", CHUNKED_DOMAINS, ids=["v3_9", "v5_6"])
def test_linear_character_spectrum_is_shifted_delta_across_chunks(dom, rng):
    a = int(rng.integers(0, dom.size))
    D = dom.digits_matrix()
    f = PFunction(dom, (D @ D[a]) % dom.p)
    W = walsh_fast(f)
    expected = np.zeros_like(W.values)
    expected[a, 0] = dom.size
    assert np.array_equal(W.values, expected)
    assert poisson_check(f, W)


def test_translate_multiplies_by_root(rng):
    dom = Domain.field(F27)
    f = random_function(dom, rng)
    a = int(rng.integers(1, dom.size))
    Wf = walsh_fast(f)
    Wg = walsh_fast(translate(f, a))
    for b in range(dom.size):
        assert Wg[b] == Wf[b] * root_power(3, dom.inner_product(b, a))


def test_rotate_rows_matches_ring_multiplication(rng):
    for p in (3, 5, 7):
        rows = rng.integers(-9, 9, size=(40, p - 1))
        for e in range(p + 2):
            rot = rotate_rows(rows, p, e)
            for i in range(0, 40, 7):
                assert CycInt(p, rot[i]) == CycInt(p, rows[i]) * root_power(p, e)
        exps = rng.integers(-p, 2 * p, size=40)  # one exponent per row
        rot = rotate_rows(rows, p, exps)
        for i in range(40):
            assert CycInt(p, rot[i]) == CycInt(p, rows[i]) * root_power(p, int(exps[i]))


def test_mul_rows_matches_ring_multiplication(rng):
    for p in (3, 5, 7):
        rows = rng.integers(-9, 9, size=(40, p - 1))
        for _ in range(6):
            c = rng.integers(-9, 9, size=p - 1)
            prod = mul_rows(rows, p, c)
            for i in range(40):
                assert CycInt(p, prod[i]) == CycInt(p, rows[i]) * CycInt(p, c)
        assert not mul_rows(rows, p, np.zeros(p - 1, dtype=np.int64)).any()


def test_spectrum_accessors_and_histogram():
    f = from_expr(F27, "Tr(x^2)")
    W = walsh_fast(f)
    assert len(W) == 27
    hist = W.histogram()
    assert [(str(v), c) for v, c in hist] == [("27", 27)]
    assert W.histogram_json() == {"27": 27}
    blob = W.to_json()
    assert blob["p"] == 3
    assert blob["abs_sq_histogram"] == {"27": 27}
    assert len(blob["values"]) == 27
    assert blob["domain"]["components"][0]["kind"] == "field"
    # abs_sq rows agree with per-entry ring arithmetic
    rows = W.abs_sq_rows()
    for b in range(0, 27, 5):
        assert CycInt(3, rows[b]) == W[b].abs_sq()


# (domain, random functions drawn, whether the exact int64 row keys apply);
# the keys cover rows whose column spans multiply to below 2^63, the
# lexsort path the rest
HISTOGRAM_CASES = [
    (Domain.vec(3, 5), 5, True),
    (Domain.vec(3, 10), 1, True),
    (Domain.vec(5, 3), 5, True),
    (Domain.vec(7, 2), 5, True),
    (Domain.field(F27).extend(VecPart(3, 2)), 5, True),
    (Domain.vec(23, 1), 5, False),
    (Domain.vec(11, 2), 2, False),
]


@pytest.mark.parametrize(
    "dom, draws, keyed",
    HISTOGRAM_CASES,
    ids=["v3_5", "v3_10", "v5_3", "v7_2", "f27v2", "v23_1", "v11_2"],
)
def test_histogram_matches_per_entry_count(dom, draws, keyed, rng, monkeypatch):
    for _ in range(draws):
        W = walsh_fast(random_function(dom, rng))
        assert (walsh._abs_sq_keys(W.values, dom.p) is not None) == keyed
        counts: dict[tuple[int, ...], int] = {}
        for b in range(dom.size):
            key = W[b].abs_sq().coeffs
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) > 10  # many distinct values, so the order matters
        hist = [(v.coeffs, c) for v, c in W.histogram()]
        assert hist == sorted(counts.items())
        # the JSON keys, formatted from the rows, are the values' text, in order
        oracle = {str(CycInt(dom.p, key)): c for key, c in sorted(counts.items())}
        assert json.dumps(W.histogram_json()) == json.dumps(oracle)
        if keyed:  # the lexsort path gives the same rows in the same order
            with monkeypatch.context() as patch:
                patch.setattr(walsh, "_abs_sq_keys", lambda values, p: None)
                assert [(v.coeffs, c) for v, c in W.histogram()] == hist


def test_histogram_keys_refuse_spans_beyond_int64():
    """At p = 5 the |W|^2 rows of these values span about 2^40 in three
    columns, so no int64 mixed-radix key holds them; small values fit."""
    rows = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 1], [0, 1, -1, 1]])
    assert walsh._abs_sq_keys(rows << 20, 5) is None
    keys, lo, spans, place = walsh._abs_sq_keys(rows, 5)
    assert math.prod(spans.tolist()) < 1 << 63
    sq = walsh._abs_sq(rows, 5)
    assert np.array_equal(keys, (sq - lo) @ place)
    assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(sq.T[::-1]))


@pytest.mark.parametrize(
    "sq, dtype",
    [
        ([[0, 0], [2**32 - 2, 0]], np.uint32),  # spans 2^32 - 1 and 1
        ([[0, 0], [2**32 - 1, 0]], np.int64),  # spans 2^32 and 1
        ([[0, 0], [65535, 65534]], np.uint32),  # 65,536 * 65,535
        ([[5, -3], [65540, 65532]], np.int64),  # 65,536 * 65,536
    ],
)
def test_histogram_keys_widen_at_2_32(sq, dtype, monkeypatch):
    """The keys are uint32 while the product of the column spans is below
    2^32 and int64 from 2^32 on, and a key dtype that cannot hold that
    product fails the assert instead of wrapping."""
    monkeypatch.setattr(walsh, "_abs_sq", lambda values, p: values)  # the rows are |W|^2
    sq = np.array(sq, dtype=np.int64)
    keys, lo, spans, place = walsh._abs_sq_keys(sq, 3)
    assert keys.dtype == dtype
    assert np.array_equal(keys, (sq - lo) @ place)
    if dtype is np.int64:  # uint32 cannot hold these spans' product
        monkeypatch.setattr(walsh, "_key_dtype", lambda span_product: np.dtype(np.uint32))
        with pytest.raises(AssertionError, match="span product"):
            walsh._abs_sq_keys(sq, 3)


@pytest.mark.parametrize(
    "dom",
    [Domain.field(F27), Domain([VecPart(3, 1), FieldPart(F9), VecPart(3, 1)]), Domain.vec(3, 8)],
    ids=["f27", "v1f9v1", "v3_8"],
)
def test_spectrum_json_matches_per_entry_ints(dom, rng):
    W = walsh_fast(random_function(dom, rng))
    blob = W.to_json()
    oracle = dict(blob, values=[[int(c) for c in row] for row in W.values])
    assert json.dumps(blob, sort_keys=True, indent=2) == json.dumps(
        oracle, sort_keys=True, indent=2
    )


def test_spectrum_shape_is_validated():
    dom = Domain.vec(3, 2)
    with pytest.raises(ValueError):
        WalshSpectrum(dom, np.zeros((9, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        WalshSpectrum(dom, np.zeros((8, 2), dtype=np.int64))
