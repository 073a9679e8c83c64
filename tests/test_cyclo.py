"""Exact cyclotomic-integer ring: canonical form, arithmetic, Gauss sums."""
import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pbent.cyclo import CycInt, format_coeffs, gauss_sum, legendre, root_power
from pbent.jsontext import format_rows
from pbent.pfunc import ascii_text

PRIMES = [3, 5, 7]


def cyc(p):
    return st.builds(
        lambda coeffs: CycInt(p, coeffs),
        st.lists(st.integers(-50, 50), min_size=p - 1, max_size=p - 1),
    )


def approx_equal(a: complex, b: complex, tol=1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---- canonical representation ----------------------------------------------------


def test_root_powers_cycle():
    for p in PRIMES:
        e = root_power(p, 1)
        acc = CycInt.one(p)
        seen = []
        for k in range(p):
            assert acc == root_power(p, k)
            seen.append(acc)
            acc = acc * e
        assert acc == CycInt.one(p)
        assert len({s.coeffs for s in seen}) == p


def test_all_roots_sum_to_zero():
    for p in PRIMES:
        total = CycInt.zero(p)
        for k in range(p):
            total = total + root_power(p, k)
        assert total == CycInt.zero(p)


def test_top_power_folds():
    # e^(p-1) = -(1 + e + ... + e^(p-2))
    for p in PRIMES:
        top = root_power(p, p - 1)
        assert top.coeffs == tuple([-1] * (p - 1))


def test_from_int_and_as_int():
    a = CycInt.from_int(5, -7)
    assert a.is_rational and a.as_int() == -7
    b = a + root_power(5, 2)
    assert not b.is_rational
    with pytest.raises(ValueError):
        b.as_int()


def test_str_forms():
    p = 3
    assert str(CycInt.zero(p)) == "0"
    assert str(CycInt.one(p) + 2 * root_power(p, 1)) == "1 + 2e"
    assert str(-root_power(3, 1)) == "-e"


@given(p=st.sampled_from([3, 5, 7, 23]), data=st.data())
def test_format_rows_matches_format_coeffs(p, data):
    """The gathered formatter writes each row as format_coeffs does: zeros,
    units, signs and magnitudes up to 10^18, in every column."""
    coeff = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-10**18, 10**18))
    rows = data.draw(st.lists(st.lists(coeff, min_size=p - 1, max_size=p - 1), min_size=1,
                              max_size=12))
    cells = format_rows(np.array(rows, dtype=np.int64))
    newline = np.full((len(rows), 1), ord("\n"), dtype=np.uint8)
    assert ascii_text(np.hstack([cells, newline])) == "".join(
        format_coeffs(row) + "\n" for row in rows
    )
    # left-aligned: once a row's text ends, only NULs follow
    assert not ((cells[:, :-1] == 0) & (cells[:, 1:] != 0)).any()


# ---- ring structure ---------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_ring_axioms(p, data):
    a = data.draw(cyc(p))
    b = data.draw(cyc(p))
    c = data.draw(cyc(p))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CycInt.zero(p) == a
    assert a * CycInt.one(p) == a
    assert a - a == CycInt.zero(p)


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_int_coercion(p, data):
    a = data.draw(cyc(p))
    k = data.draw(st.integers(-20, 20))
    assert a + k == a + CycInt.from_int(p, k)
    assert k + a == a + k
    assert a * k == k * a == a * CycInt.from_int(p, k)
    assert a - k == a + (-k)


@pytest.mark.parametrize("p", PRIMES + [2003])
def test_int_scaling_matches_ring_product(p):
    """CycInt * int scales the coefficients; the ring product by from_int is
    the oracle, for the Gauss sum and a unit-free element."""
    for a in (gauss_sum(p), CycInt(p, range(1, p))):
        for k in (0, 1, -1, p, -p, p**3, -(p**3)):
            expected = CycInt.__mul__(a, CycInt.from_int(p, k))
            assert a * k == k * a == expected, k
            assert all(type(c) is int for c in (a * k).coeffs)


def test_mixed_characteristic_rejected():
    with pytest.raises(ValueError):
        CycInt.one(3) + CycInt.one(5)


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_pow_matches_repeated_multiplication(p, data):
    a = data.draw(cyc(p))
    n = data.draw(st.integers(0, 5))
    acc = CycInt.one(p)
    for _ in range(n):
        acc = acc * a
    assert a**n == acc


# ---- conjugation and modulus -------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_conjugation_is_an_involution_and_homomorphism(p, data):
    a = data.draw(cyc(p))
    b = data.draw(cyc(p))
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


def test_conj_inverts_roots():
    for p in PRIMES:
        for k in range(p):
            assert root_power(p, k).conj() == root_power(p, (-k) % p)


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_abs_sq_is_conj_product_and_multiplicative(p, data):
    a = data.draw(cyc(p))
    b = data.draw(cyc(p))
    assert a.abs_sq() == a * a.conj()
    assert (a * b).abs_sq() == a.abs_sq() * b.abs_sq()
    # the squared modulus is real: fixed by conjugation, nonnegative as a float
    s = a.abs_sq()
    assert s.conj() == s
    assert s.to_complex().real >= -1e-9
    assert abs(s.to_complex().imag) < 1e-9


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_complex_embedding_is_a_homomorphism(p, data):
    a = data.draw(cyc(p))
    b = data.draw(cyc(p))
    assert approx_equal((a * b).to_complex(), a.to_complex() * b.to_complex(), 1e-7)
    assert approx_equal((a + b).to_complex(), a.to_complex() + b.to_complex(), 1e-7)
    assert approx_equal(a.abs_sq().to_complex(), abs(a.to_complex()) ** 2, 1e-7)


def test_root_power_embeds_to_unit_circle():
    for p in PRIMES:
        for k in range(p):
            z = root_power(p, k).to_complex()
            assert approx_equal(z, cmath.exp(2j * cmath.pi * k / p))


# ---- quadratic character and Gauss sums ---------------------------------------------


def test_legendre_prime_field():
    for p in PRIMES + [11, 13]:
        squares = {(x * x) % p for x in range(1, p)}
        for t in range(1, p):
            assert legendre(t, p) == (1 if t in squares else -1)
        assert legendre(0, p) == 0


@pytest.mark.parametrize("p", PRIMES + [11, 13])
def test_gauss_sum_square(p):
    g = gauss_sum(p)
    # g^2 = legendre(-1, p) * p, |g|^2 = p
    assert g * g == CycInt.from_int(p, legendre(-1, p) * p)
    assert g.abs_sq() == CycInt.from_int(p, p)


def test_gauss_sum_small_values():
    g3 = gauss_sum(3)
    assert g3 == CycInt.one(3) + 2 * root_power(3, 1)
    assert approx_equal(g3.to_complex(), 1j * 3**0.5)
    g5 = gauss_sum(5)
    assert approx_equal(g5.to_complex(), 5**0.5)
