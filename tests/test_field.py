"""Finite field contexts: construction, tables, and independent arithmetic oracles.

The oracle here is deliberately primitive: pure-python polynomial arithmetic
modulo (p, modulus), with no lookup tables, so that every table-backed
operation in the library is checked against something that cannot share its
bugs.
"""
from math import gcd

import numpy as np
import pytest
from conftest import traced_peak

from pbent.field import (
    BUILTIN_MODULI,
    FieldCtx,
    FieldError,
    LinearMaps,
    digit_table,
    make_field,
    poly_is_irreducible,
)
from pbent.pfunc import Domain

TEST_MODULI = {
    (3, 2): (1, 0, 1),  # x^2 + 1
    (5, 2): (2, 0, 1),  # x^2 + 2
    (5, 4): (2, 0, 0, 0, 1),  # x^4 + 2
    (3, 6): (2, 1, 0, 0, 0, 0, 1),  # x^6 + x + 2
}


# ---- oracle helpers ---------------------------------------------------------------


def poly_mul_mod(a, b, modulus, p):
    """Pure-python product of digit tuples, reduced mod (p, modulus)."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # long division by the monic modulus
    for top in range(len(prod) - 1, m - 1, -1):
        c = prod[top]
        if c:
            for k in range(m + 1):
                prod[top - m + k] = (prod[top - m + k] - c * modulus[k]) % p
    return tuple(prod[:m])


def poly_pow_mod(a, e, modulus, p):
    m = len(modulus) - 1
    result = tuple(1 if i == 0 else 0 for i in range(m))
    base = tuple(a)
    while e:
        if e & 1:
            result = poly_mul_mod(result, base, modulus, p)
        base = poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


def oracle_root(modulus, p):
    """Digits of w, the residue of x modulo (p, modulus)."""
    m = len(modulus) - 1
    return poly_mul_mod((0, 1) + (0,) * (m - 1), (1,), modulus, p)


def oracle_trace(a, modulus, p):
    """Tr(a) = a + a^p + ... + a^(p^(m-1)) by the pure-python powmod; every
    digit but the constant one must vanish."""
    m = len(modulus) - 1
    acc = [0] * m
    for i in range(m):
        conj = poly_pow_mod(a, p**i, modulus, p)
        acc = [(x + y) % p for x, y in zip(acc, conj)]
    assert all(c == 0 for c in acc[1:])
    return acc[0]


def oracle_has_full_order(a, modulus, p):
    """Does the digit tuple a generate the multiplicative group?"""
    order = p ** (len(modulus) - 1) - 1
    one = tuple(1 if i == 0 else 0 for i in range(len(modulus) - 1))
    if poly_pow_mod(a, order, modulus, p) != one:
        return False  # a = 0
    n = order
    f = 2
    factors = set()
    while f * f <= n:
        while n % f == 0:
            factors.add(f)
            n //= f
        f += 1
    if n > 1:
        factors.add(n)
    return all(poly_pow_mod(a, order // ell, modulus, p) != one for ell in factors)


def oracle_divides(candidate, modulus, p):
    """Does the monic polynomial `candidate` divide `modulus` over F_p?"""
    rem = list(modulus)
    d = len(candidate) - 1
    while len(rem) - 1 >= d:
        top = rem[-1]
        if top:
            shift = len(rem) - 1 - d
            for k in range(d + 1):
                rem[shift + k] = (rem[shift + k] - top * candidate[k]) % p
        rem.pop()
    return all(c == 0 for c in rem)


def oracle_irreducible(modulus, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for tail in range(p**d):
            cand = [(tail // p**i) % p for i in range(d)] + [1]
            if oracle_divides(cand, modulus, p):
                return False
    return deg >= 1


def monic_moduli(p, m):
    """Every monic polynomial of degree m over F_p, lower digits counted in base p."""
    for code in range(p**m):
        yield tuple((code // p**i) % p for i in range(m)) + (1,)


def poly_mul(a, b, p):
    """Plain product of digit tuples over F_p, with no reduction."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return tuple(prod)


# ---- construction and validation ----------------------------------------------------


def test_builtin_moduli_are_irreducible():
    for (p, m), mod in BUILTIN_MODULI.items():
        assert len(mod) == m + 1
        assert oracle_irreducible(mod, p)
        make_field(p, m)  # constructor re-validates


@pytest.mark.parametrize("key,mod", sorted(TEST_MODULI.items()))
def test_suite_moduli_are_irreducible(key, mod):
    p, m = key
    assert oracle_irreducible(mod, p)
    assert poly_is_irreducible(mod, p)


def test_irreducibility_rejects_products():
    # x^2 + 2 = (x+1)(x+2) over F_3
    assert not poly_is_irreducible((2, 0, 1), 3)
    assert not oracle_irreducible((2, 0, 1), 3)
    with pytest.raises(FieldError):
        make_field(3, 2, (2, 0, 1))
    # x^2 + 1 has no roots over F_3, hence irreducible at degree 2
    assert poly_is_irreducible((1, 0, 1), 3)
    make_field(3, 2, (1, 0, 1))


# (p, largest m): every monic modulus in these ranges is checked, 13,826 in all
IRREDUCIBILITY_RANGES = [(3, 7), (5, 5), (7, 4), (11, 3), (13, 3)]


def test_irreducibility_matches_trial_division():
    for p, top in IRREDUCIBILITY_RANGES:
        for m in range(1, top + 1):
            for mod in monic_moduli(p, m):
                assert poly_is_irreducible(mod, p) == oracle_irreducible(mod, p), (p, mod)


# irreducible ternary factors, lowest digit first; the exhaustive test above covers them
QUADRATIC = (1, 0, 1)  # x^2 + 1
CUBICS = ((1, 2, 0, 1), (2, 2, 0, 1))  # x^3 + 2x + 1, x^3 + 2x + 2
QUARTIC = (1, 0, 1, 1, 1)  # x^4 + x^3 + x^2 + 1
SEXTIC = (1, 0, 0, 0, 1, 1, 1)  # x^6 + x^5 + x^4 + 1

# reducible ternary moduli without a root, named by their factors
TERNARY_PRODUCTS = {
    "quadratic*quartic*sextic": poly_mul(poly_mul(QUADRATIC, QUARTIC, 3), SEXTIC, 3),
    "two-cubics": poly_mul(*CUBICS, 3),
    "quadratic-squared": poly_mul(QUADRATIC, QUADRATIC, 3),
    "quadratic*cubic": poly_mul(QUADRATIC, CUBICS[0], 3),
}


@pytest.mark.parametrize("mod", TERNARY_PRODUCTS.values(), ids=TERNARY_PRODUCTS.keys())
def test_irreducibility_refuses_products_without_roots(mod):
    assert all(sum(c * r**i for i, c in enumerate(mod)) % 3 for r in range(3))
    assert not oracle_irreducible(mod, 3)
    assert not poly_is_irreducible(mod, 3)


def test_frobenius_fixed_product_is_refused_by_rank():
    """x^(3^12) = x modulo this product, so only the rank step refuses it."""
    mod = TERNARY_PRODUCTS["quadratic*quartic*sextic"]
    assert mod == (1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 1, 2, 1)
    w = oracle_root(mod, 3)
    assert poly_pow_mod(w, 3**12, mod, 3) == w
    assert not poly_is_irreducible(mod, 3)
    with pytest.raises(FieldError, match=r"modulus \[1, 0, 2, .*\] is reducible over F_3"):
        make_field(3, 12, mod)


def test_constructor_validation():
    with pytest.raises(FieldError):
        make_field(2, 3, (1, 1, 0, 1))  # even characteristic
    with pytest.raises(FieldError):
        make_field(4, 1, (0, 1))  # not prime
    with pytest.raises(FieldError):
        make_field(3, 0, (1,))
    with pytest.raises(FieldError):
        make_field(3, 3, (1, 0, 1))  # wrong digit count
    with pytest.raises(FieldError):
        make_field(3, 3, (2, 0, 1, 2))  # not monic
    with pytest.raises(FieldError):
        FieldCtx(3, 13, [0] * 13 + [1])  # exceeds the size guard
    with pytest.raises(FieldError):
        FieldCtx(3, 10**8, (0, 1))  # refused before computing 3^(10^8)
    with pytest.raises(FieldError):
        FieldCtx(2305843009213693951, 3, (1, 0, 0, 1))  # no trial division of p
    with pytest.raises(FieldError):
        make_field(3, 5, None)  # no built-in modulus for this shape


def test_prime_field_defaults():
    k = make_field(7, 1)
    assert k.q == 7 and k.modulus == (0, 1)
    assert [k.trace_idx(i) for i in range(7)] == list(range(7))


def test_explicit_primitive_is_validated():
    k = make_field(3, 2, TEST_MODULI[(3, 2)])
    # index 1 is the multiplicative identity, never primitive for q > 2; 0 has
    # no order, and the rest are not element indices of F_9 at all
    for bad in (1, 0, -1, 9, 10**23):
        with pytest.raises(FieldError):
            FieldCtx(3, 2, TEST_MODULI[(3, 2)], primitive=bad)
    FieldCtx(3, 2, TEST_MODULI[(3, 2)], primitive=k.primitive_index)


def all_fields():
    pairs = sorted(BUILTIN_MODULI.items()) + sorted(TEST_MODULI.items())
    return [make_field(p, m, mod) for (p, m), mod in pairs]


# ---- arithmetic against the oracle ---------------------------------------------------


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_multiplication_matches_polynomial_oracle(ctx, rng):
    pairs = rng.integers(0, ctx.q, size=(300, 2))
    digits = digit_table(ctx.p, ctx.m)
    for a, b in pairs:
        da = tuple(int(v) for v in digits[a])
        db = tuple(int(v) for v in digits[b])
        expected = ctx.compose(poly_mul_mod(da, db, ctx.modulus, ctx.p))
        assert ctx.mul_idx(int(a), int(b)) == expected


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_vectorized_ops_match_scalar(ctx, rng):
    a = rng.integers(0, ctx.q, size=200)
    b = rng.integers(0, ctx.q, size=200)
    mul = ctx.mul_indices(a, b)
    for i in range(len(a)):
        assert int(mul[i]) == ctx.mul_idx(int(a[i]), int(b[i]))


def pow_by_squaring(ctx, a, e):
    """Square-and-multiply over mul_indices: the oracle for pow_indices,
    which takes one log-table gather instead."""
    result = np.ones(a.shape, dtype=np.int64)
    base = a.copy()
    while e:
        if e & 1:
            result = ctx.mul_indices(result, base)
        base = ctx.mul_indices(base, base)
        e >>= 1
    return result


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_pow_indices_matches_square_and_multiply(ctx):
    a = np.arange(ctx.q, dtype=np.int64)
    # every residue of e mod q - 1 twice, the multiples of q - 1 among them,
    # and exponents whose product with a log would overflow int64
    for e in [*range(2 * (ctx.q - 1) + 2), (3**41 + 1) // 2, 2**70 + 1]:
        assert np.array_equal(ctx.pow_indices(a, e), pow_by_squaring(ctx, a, e)), e
    assert ctx.pow_indices(np.zeros(3, dtype=np.int64), 0).tolist() == [1, 1, 1]
    for e in (0, 1, 2, ctx.q - 1, ctx.q):
        assert [ctx.pow_idx(int(x), e) for x in a] == pow_by_squaring(ctx, a, e).tolist()
    with pytest.raises(FieldError):
        ctx.pow_indices(a, -1)


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_digits_are_base_p_expansions(ctx):
    idx = np.arange(ctx.q, dtype=np.int64)
    pw = ctx.p ** np.arange(ctx.m, dtype=np.int64)
    digits = digit_table(ctx.p, ctx.m)
    assert digits.dtype == np.int64
    assert np.array_equal(digits, idx[:, None] // pw % ctx.p)


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_inverses_and_powers(ctx):
    for a in range(1, min(ctx.q, 200)):
        assert ctx.mul_idx(a, ctx.inv_idx(a)) == 1
    assert ctx.pow_idx(0, 0) == 1  # empty product convention
    with pytest.raises(FieldError):
        ctx.inv_idx(0)
    with pytest.raises(FieldError):
        ctx.eta_idx(0)


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_trace_matches_frobenius_oracle(ctx, rng):
    digits = digit_table(ctx.p, ctx.m)
    for a in rng.integers(0, ctx.q, size=40):
        da = tuple(int(v) for v in digits[a])
        assert ctx.trace_idx(int(a)) == oracle_trace(da, ctx.modulus, ctx.p)


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_gram_matches_trace_oracle(ctx):
    w = oracle_root(ctx.modulus, ctx.p)
    for i in range(ctx.m):
        for j in range(ctx.m):
            w_ij = poly_pow_mod(w, i + j, ctx.modulus, ctx.p)
            assert int(ctx.gram[i, j]) == oracle_trace(w_ij, ctx.modulus, ctx.p)


@pytest.mark.parametrize(
    "ctx",
    all_fields() + [make_field(5, 1, (2, 1)), make_field(7, 1, (3, 1))],
    ids=lambda c: f"F_{c.p}^{c.m}:{','.join(map(str, c.modulus))}",
)
def test_w_is_the_residue_of_x(ctx):
    assert ctx.w.coeffs == oracle_root(ctx.modulus, ctx.p)


@pytest.mark.parametrize(
    "ctx",
    [
        make_field(3, 3),
        make_field(5, 3),
        make_field(3, 6, TEST_MODULI[(3, 6)]),
        make_field(1009, 1),
        make_field(101, 2, (99, 0, 1)),
    ],
    ids=lambda c: f"F_{c.p}^{c.m}",
)
def test_trace_term_matches_scalar_evaluation(ctx, rng):
    p, q = ctx.p, ctx.q
    exponents = [0, 1, 2, p + 1, p**2 + 1, (3**3 + 1) // 2, q - 1, q, 3 * (q - 1) + 2]
    for c in (0, 1, int(rng.integers(2, q))):
        for e in exponents:
            expected = [ctx.trace_idx(ctx.mul_idx(c, ctx.pow_idx(x, e))) for x in range(q)]
            assert ctx.trace_term(c, e).tolist() == expected, (c, e)
    with pytest.raises(FieldError):
        ctx.trace_term(1, -1)


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_trace_is_linear_and_balanced(ctx, rng):
    p = ctx.p
    for _ in range(30):
        a, b = (int(v) for v in rng.integers(0, ctx.q, size=2))
        c = int(rng.integers(0, p))
        lhs = ctx.trace_idx(ctx.add_idx(a, ctx.mul_idx(ctx.compose([c] + [0] * (ctx.m - 1)), b)))
        assert lhs == (ctx.trace_idx(a) + c * ctx.trace_idx(b)) % p
    values = [ctx.trace_idx(a) for a in range(ctx.q)]
    for t in range(p):
        assert values.count(t) == ctx.q // p


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_eta_matches_brute_force_squares(ctx):
    squares = set()
    digits = digit_table(ctx.p, ctx.m)
    for i in range(1, ctx.q):
        d = tuple(int(v) for v in digits[i])
        squares.add(ctx.compose(poly_mul_mod(d, d, ctx.modulus, ctx.p)))
    assert len(squares) == (ctx.q - 1) // 2
    for i in range(1, ctx.q):
        assert ctx.eta_idx(i) == (1 if i in squares else -1)


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_eta_table_is_eulers_criterion(ctx):
    """eta(a) = a^((q-1)/2), whichever primitive element the log table uses."""
    k = next(k for k in range(2, ctx.q + 1) if gcd(k, ctx.q - 1) == 1)
    other = FieldCtx(ctx.p, ctx.m, ctx.modulus, int(ctx.exp[k % (ctx.q - 1)]))
    power = ctx.pow_indices(np.arange(ctx.q), (ctx.q - 1) // 2)
    assert set(power.tolist()) <= {0, 1, ctx.p - 1}
    expected = np.where(power == ctx.p - 1, -1, power)
    for c in (ctx, other):
        assert [c.eta_idx(a) for a in range(1, c.q)] == expected[1:].tolist()


@pytest.mark.parametrize(
    "ctx",
    all_fields() + [make_field(101, 2, (99, 0, 1)), make_field(1009, 1)],
    ids=lambda c: f"F_{c.p}^{c.m}",
)
def test_zech_is_log_of_one_plus_power(ctx):
    """zech[k] = log(1 + g^k) by element arithmetic, and -1 exactly where
    g^k = -1, at k = (q - 1)/2."""
    half = (ctx.q - 1) // 2
    expected = []
    for k in range(ctx.q - 1):
        s = ctx.one + ctx.g**k
        expected.append(-1 if s == ctx.zero else int(ctx.log[s.index]))
    assert ctx.zech.tolist() == expected
    assert np.flatnonzero(ctx.zech == -1).tolist() == [half]
    assert not ctx.zech.flags.writeable


@pytest.mark.parametrize("ctx", all_fields(), ids=lambda c: f"F_{c.p}^{c.m}")
def test_eta_is_multiplicative(ctx, rng):
    for _ in range(50):
        a, b = (int(v) for v in rng.integers(1, ctx.q, size=2))
        assert ctx.eta_idx(ctx.mul_idx(a, b)) == ctx.eta_idx(a) * ctx.eta_idx(b)
    assert ctx.eta_idx(ctx.primitive_index) == -1


@pytest.mark.parametrize(
    "ctx", all_fields() + [make_field(101, 2, (99, 0, 1))], ids=lambda c: f"F_{c.p}^{c.m}"
)
def test_primitive_element_has_full_order(ctx):
    """The primitive index is the smallest index of full order."""
    digits = digit_table(ctx.p, ctx.m)

    def full(idx):
        return oracle_has_full_order(tuple(int(v) for v in digits[idx]), ctx.modulus, ctx.p)

    assert full(ctx.primitive_index)
    assert not any(full(idx) for idx in range(ctx.primitive_index))


def _exp_fields():
    f81 = make_field(3, 4)
    gens = [FieldCtx(3, 4, f81.modulus, primitive=g) for g in f81.primitive_indices()]
    return gens + [make_field(5, 3), make_field(3, 6, TEST_MODULI[(3, 6)])]


@pytest.mark.parametrize(
    "ctx", _exp_fields(), ids=lambda c: f"F_{c.p}^{c.m}:g{c.primitive_index}"
)
def test_exp_table_is_powers_of_the_generator(ctx):
    g = tuple(int(v) for v in digit_table(ctx.p, ctx.m)[ctx.primitive_index])
    power = tuple(1 if i == 0 else 0 for i in range(ctx.m))
    for k in range(ctx.q - 1):
        assert int(ctx.exp[k]) == ctx.compose(power)
        power = poly_mul_mod(power, g, ctx.modulus, ctx.p)


def test_exp_log_tables_are_inverse_bijections():
    for ctx in all_fields():
        assert sorted(int(v) for v in ctx.exp) == list(range(1, ctx.q))
        for k in range(0, ctx.q - 1, max(1, (ctx.q - 1) // 97)):
            assert int(ctx.log[int(ctx.exp[k])]) == k


# ---- element wrapper ------------------------------------------------------------------


def test_element_arithmetic_and_identities():
    k = make_field(3, 3)
    w = k.w
    assert (w + w + w).index == 0
    assert w * w**2 == w**3
    assert (2 * w + 1) - 1 == 2 * w
    assert w * w.inverse() == k.one
    assert -(-w) == w
    assert (w**26).index == 1  # order divides q - 1
    assert w.eta() in (-1, 1)


def test_element_cross_field_rejected():
    a = make_field(3, 3).w
    b = make_field(3, 2, TEST_MODULI[(3, 2)]).w
    with pytest.raises((FieldError, TypeError, ValueError)):
        a + b


def test_poly_str_smoke():
    k = make_field(3, 3)
    assert k.zero.poly_str() == "0"
    assert k.one.poly_str() == "1"
    assert k.w.poly_str() == "w"
    assert (k.w**2 + 2 * k.w + 1).poly_str() == "w^2 + 2w + 1"


@pytest.mark.parametrize(
    "p,m,mod",
    [(3, 2, (1, 0, 1)), (3, 3, None), (3, 4, None), (5, 2, (2, 0, 1)), (7, 2, (1, 0, 1))],
    ids=["F9", "F27", "F81", "F25", "F49"],
)
def test_pairing_perm_matches_trace_form(p, m, mod):
    ctx = make_field(p, m, mod)
    idx = np.arange(ctx.q)
    traces = ctx.trace_table[ctx.mul_indices(idx[:, None], idx[None, :])]  # [b, x]
    dom = Domain.field(ctx)
    perm = dom.walsh_perm()
    digits = digit_table(p, m)
    assert np.array_equal((digits[perm] @ digits.T) % p, traces)
    assert perm is dom.walsh_perm()
    with pytest.raises(ValueError):
        perm[0] = perm[1]  # cached, so read-only


def test_context_identity():
    a = make_field(3, 3)
    b = make_field(3, 3, BUILTIN_MODULI[(3, 3)])
    assert a == b and hash(a) == hash(b)
    c = make_field(3, 2, TEST_MODULI[(3, 2)])
    assert a != c


def test_primitive_indices_enumeration():
    k = make_field(3, 2, TEST_MODULI[(3, 2)])
    prim = k.primitive_indices()
    # euler phi(8) = 4 generators in F_9*
    assert len(prim) == 4
    one = (1, 0)
    digits = digit_table(k.p, k.m)
    for idx in prim:
        d = tuple(int(v) for v in digits[idx])
        assert poly_pow_mod(d, 4, k.modulus, 3) != one


# ---- index-space tables against the digit-row builders ---------------------------------
#
# The builders below are the ones FieldCtx used before its tables moved to index
# space: exp by doubling products of (q - 1) x m digit rows with g's matrix, the
# trace table as the q x m digit table times Tr(w^j), and each pairing permutation
# digit by digit as a mixed-radix outer sum.  They share no code with
# `LinearMaps`, so they are the oracles for it.


def first_modulus(p, m):
    """The first monic irreducible of degree m over F_p, counting its lower
    digits (lowest first) as a base-p number."""
    for mod in monic_moduli(p, m):
        if poly_is_irreducible(mod, p):
            return mod
    raise AssertionError(f"no irreducible of degree {m} over F_{p}")


def row_product_tables(p, m, modulus, primitive):
    """exp, log and the trace table built from digit rows."""
    q = p**m
    comp = np.zeros((m, m), dtype=np.int64)
    comp[1:, :-1] = np.eye(m - 1, dtype=np.int64)
    comp[:, -1] = [(-c) % p for c in modulus[:m]]
    powers = [np.eye(m, dtype=np.int64)]
    for _ in range(m - 1):
        powers.append(powers[-1] @ comp % p)
    traces = np.array([np.trace(a) for a in powers]) % p
    digits = digit_table(p, m)
    g = np.tensordot(digits[primitive], np.stack(powers), axes=1) % p
    rows = np.zeros((q - 1, m), dtype=np.int64)
    rows[0, 0] = 1
    filled = 1
    while filled < q - 1:
        take = min(filled, q - 1 - filled)
        rows[filled : filled + take] = (rows[:take] @ g.T) % p
        filled += take
        g = g @ g % p
    exp = rows @ (p ** np.arange(m, dtype=np.int64))
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    return exp, log, digits @ traces % p


def per_row_block_perm(C, p):
    """b -> index(C * digits(b)), one outer sum over the input digits per output digit."""
    d = np.arange(p, dtype=np.int64)
    perm = np.zeros(p ** len(C), dtype=np.int64)
    for r in range(len(C)):
        acc = np.zeros(1, dtype=np.int64)
        for i in range(len(C)):
            acc = np.add.outer(C[r, i] * d, acc).reshape(-1)
        perm += (acc % p) * p**r
    return perm


# every field with q <= 3^8 for p in {3, 5, 7, 11, 13}, three large ones, and
# one- and two-digit fields of large characteristic
ORACLE_FIELDS = [
    (p, m, None) for p in (3, 5, 7, 11, 13) for m in range(1, 9) if p**m <= 3**8
] + [
    (5, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1)),
    (3, 12, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1)),
    (7, 7, (1, 0, 0, 0, 0, 0, 6, 1)),
    (1009, 1, None),
    (2003, 1, None),
    (1009, 2, None),
]


@pytest.mark.parametrize("p,m,mod", ORACLE_FIELDS, ids=lambda v: str(v) if v else "-")
def test_index_space_tables_match_digit_row_builders(p, m, mod):
    mod = mod or first_modulus(p, m)
    assert poly_is_irreducible(mod, p)
    ctx = make_field(p, m, mod)
    exp, log, trace_table = row_product_tables(p, m, mod, ctx.primitive_index)
    assert np.array_equal(ctx.exp, exp)
    assert np.array_equal(ctx.log, log)
    assert np.array_equal(ctx.trace_table, trace_table)
    assert np.array_equal(ctx.trace_exp, trace_table[exp])
    assert np.array_equal(Domain.field(ctx).walsh_perm(), per_row_block_perm(ctx.gram, p))
    for i in range(0, ctx.q, max(1, ctx.q // 97)):
        assert ctx.digits_of(i) == [i // p**j % p for j in range(m)]


@pytest.mark.parametrize(
    "p,m", [(3, 1), (3, 2), (3, 3), (3, 5), (5, 4), (7, 3), (11, 2), (1009, 1), (101, 3)]
)
def test_linear_maps_match_digit_products(p, m, rng):
    maps = LinearMaps(p, m)
    digits = digit_table(p, m)
    pw = p ** np.arange(m, dtype=np.int64)
    x = rng.integers(0, p**m, size=500)
    zero = np.zeros((m, m), dtype=np.int64)
    for C in [rng.integers(0, p, size=(m, m)) for _ in range(3)] + [zero]:
        expected = digits @ C.T % p @ pw
        assert np.array_equal(maps.table(C), expected)
        assert np.array_equal(maps(C, x), expected[x])


def test_linear_maps_refuse_images_past_int64():
    # 5^27 < 2^63 - 1 < 5^28: the radix-5 images of 28 ternary digits overflow
    with pytest.raises(FieldError, match="overflow int64"):
        LinearMaps(3, 28)


def test_make_field_memory_is_bounded():
    """The tables are a few arrays of q int64; no q x m digit table is formed."""
    for p, m, mod, bound in [
        (5, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1), 20 * 2**20),
        (1009, 2, first_modulus(1009, 2), 64 * 1009**2),
        (101, 3, first_modulus(101, 3), 64 * 101**3),
    ]:
        _, peak = traced_peak(lambda: make_field(p, m, mod))
        assert peak <= bound, (p, m, peak)
