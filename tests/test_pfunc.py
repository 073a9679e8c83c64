"""Domains, truth tables, the expression DSL, and the truth-table file format."""
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import point_add, point_neg, traced_peak, translate
from hypothesis import example, given, settings, strategies as st
from test_walsh import PAIRING_DOMAINS

import pbent.pfunc as pfunc
from pbent.field import FieldCtx, FieldError, exceeds_size_limit, is_odd_prime, make_field
from pbent.pfunc import (
    Domain,
    DomainError,
    ExprError,
    FieldPart,
    PFunction,
    VecPart,
    dump_tt,
    from_expr,
    load_tt,
    parse_coefficient,
    random_function,
    save_tt,
    zero_function,
)

F27 = make_field(3, 3)
F9 = make_field(3, 2, (1, 0, 1))
F25 = make_field(5, 2, (2, 0, 1))


def sample_domains():
    return [
        Domain.vec(3, 1),
        Domain.vec(3, 3),
        Domain.vec(5, 2),
        Domain.field(F27),
        Domain.field(F25),
        Domain.field(F9).extend(VecPart(3, 2)),
        Domain([VecPart(3, 1), FieldPart(F27), VecPart(3, 1)]),
    ]


DOMAIN_IDS = ["v3_1", "v3_3", "v5_2", "f27", "f25", "f9v2", "v1f27v1"]


# ---- construction and identity ---------------------------------------------------


def test_domain_validation():
    with pytest.raises(DomainError):
        Domain([])
    with pytest.raises(DomainError):
        Domain([VecPart(3, 1), VecPart(5, 1)])  # mixed characteristic
    with pytest.raises(DomainError):
        Domain.vec(3, 13)  # exceeds the size guard
    with pytest.raises(DomainError):
        VecPart(3, 10**8)  # refused before computing 3^(10^8)
    with pytest.raises(DomainError):
        VecPart(2305843009213693951, 1)


def test_domain_identity_and_describe():
    a = Domain.field(F27)
    b = Domain.field(make_field(3, 3))
    assert a == b and hash(a) == hash(b)
    assert a != Domain.vec(3, 3)
    d = Domain.field(F9).extend(VecPart(3, 2))
    info = d.describe()
    assert info["p"] == 3 and info["n_total"] == 4
    assert info["components"][0]["kind"] == "field"
    assert info["components"][1]["kind"] == "vec"


# ---- the additive group ------------------------------------------------------------


@pytest.mark.parametrize("dom", sample_domains(), ids=DOMAIN_IDS)
def test_point_addition_group_laws(dom, rng):
    pts = rng.integers(0, dom.size, size=(40, 3))
    for i, j, k in pts:
        i, j, k = int(i), int(j), int(k)
        assert point_add(dom, i, j) == point_add(dom, j, i)
        assert point_add(dom, point_add(dom, i, j), k) == point_add(
            dom, i, point_add(dom, j, k)
        )
        assert point_add(dom, i, 0) == i
        assert point_add(dom, i, point_neg(dom, i)) == 0


@pytest.mark.parametrize("dom", sample_domains(), ids=DOMAIN_IDS)
def test_negation_perm_matches_point_neg(dom):
    perm = dom.negation_perm()
    assert np.array_equal(perm[perm], np.arange(dom.size))  # involution
    for i in range(0, dom.size, max(1, dom.size // 64)):
        assert int(perm[i]) == point_neg(dom, i)


def test_field_point_add_matches_field_arithmetic(rng):
    dom = Domain.field(F27)
    for a, b in rng.integers(0, 27, size=(50, 2)):
        assert point_add(dom, int(a), int(b)) == F27.add_idx(int(a), int(b))


# ---- the bilinear pairing -----------------------------------------------------------


@pytest.mark.parametrize("dom", sample_domains(), ids=DOMAIN_IDS)
def test_inner_product_is_symmetric_bilinear(dom, rng):
    p = dom.p
    for b, x, y in rng.integers(0, dom.size, size=(30, 3)):
        b, x, y = int(b), int(x), int(y)
        assert dom.inner_product(b, x) == dom.inner_product(x, b)
        assert (
            dom.inner_product(b, point_add(dom, x, y))
            == (dom.inner_product(b, x) + dom.inner_product(b, y)) % p
        )
    assert dom.inner_product(0, int(rng.integers(0, dom.size))) == 0


@pytest.mark.parametrize("dom", sample_domains(), ids=DOMAIN_IDS)
def test_inner_product_matches_gram(dom, rng):
    C = dom.gram()
    D = dom.digits_matrix()
    for b, x in rng.integers(0, dom.size, size=(60, 2)):
        b, x = int(b), int(x)
        expected = int(D[b] @ C @ D[x]) % dom.p
        assert dom.inner_product(b, x) == expected


def _walsh_perm_all_digits(dom):
    """walsh_perm as one mixed-radix outer sum over all n_total digits per
    output digit, ignoring the Gram matrix's blocks."""
    C, p = dom.gram(), dom.p
    d = np.arange(p, dtype=np.int64)
    perm = np.zeros(dom.size, dtype=np.int64)
    for r in range(dom.n_total):
        acc = np.zeros(1, dtype=np.int64)
        for i in range(dom.n_total):
            acc = np.add.outer(C[r, i] * d, acc).reshape(-1)
        perm += (acc % p) * p**r
    return perm


F729 = make_field(3, 6, (2, 1, 0, 0, 0, 0, 1))


@pytest.mark.parametrize(
    "dom",
    [*sample_domains(), *PAIRING_DOMAINS, Domain.field(F729).extend(VecPart(3, 6))],
    ids=[*DOMAIN_IDS, "f125", "f343", "v1f25v1", "f49v1", "f729v6"],
)
def test_walsh_perm_matches_all_digit_build(dom):
    assert np.array_equal(dom.walsh_perm(), _walsh_perm_all_digits(dom))


@pytest.mark.parametrize("dom", sample_domains(), ids=DOMAIN_IDS)
def test_pairing_nondegenerate_and_walsh_perm(dom):
    perm = dom.walsh_perm()
    assert np.unique(perm).size == dom.size  # bijective
    assert not perm.flags.writeable
    assert perm is dom.walsh_perm()  # cached per domain
    D = dom.digits_matrix()
    step = max(1, dom.size // 48)
    for b in range(0, dom.size, step):
        vals = (D[perm[b]] @ D.T) % dom.p
        direct = [dom.inner_product(b, x) for x in range(0, dom.size, step)]
        assert [int(vals[x]) for x in range(0, dom.size, step)] == direct
        if b != 0:
            assert np.any((D[perm] @ D[b]) % dom.p != 0)


def test_vec_inner_product_is_dot():
    dom = Domain.vec(3, 2)
    # point index encodes digits little-endian: i = x0 + 3*x1
    assert dom.inner_product(1 + 3 * 2, 2 + 3 * 1) == (1 * 2 + 2 * 1) % 3
    assert dom.inner_product(4, 4) == (1 * 1 + 1 * 1) % 3


def test_field_inner_product_is_trace_of_product(rng):
    dom = Domain.field(F27)
    for b, x in rng.integers(0, 27, size=(40, 2)):
        b, x = int(b), int(x)
        assert dom.inner_product(b, x) == F27.trace_idx(F27.mul_idx(b, x))


# ---- PFunction ------------------------------------------------------------------------


def test_pfunction_basics():
    dom = Domain.vec(3, 2)
    f = PFunction(dom, [0, 1, 2, 0, 1, 2, 0, 1, 1])
    g = PFunction(dom, np.arange(9))  # values reduce mod 3
    assert g(5) == 5 % 3
    assert (f + g)(4) == (f(4) + g(4)) % 3
    assert (-f)(2) == (3 - f(2)) % 3
    assert (f - f) == zero_function(dom)
    assert f == PFunction(dom, f.table.copy())
    assert hash(f) == hash(PFunction(dom, f.table.copy()))
    assert f != g
    with pytest.raises(DomainError):
        PFunction(dom, [0, 1, 2])  # wrong length
    with pytest.raises(DomainError):
        f + PFunction(Domain.vec(3, 1), [0, 1, 2])


@pytest.mark.parametrize("dom", sample_domains(), ids=DOMAIN_IDS)
def test_translate_oracle(dom, rng):
    f = random_function(dom, rng)
    a = int(rng.integers(0, dom.size))
    shifted = translate(f, a)
    for x in range(0, dom.size, max(1, dom.size // 80)):
        assert shifted(x) == f(point_add(dom, x, a))
    assert translate(f, 0) == f
    assert translate(translate(f, a), point_neg(dom, a)) == f


def test_as_vec_keeps_table():
    f = from_expr(F27, "Tr(x^2)")
    v = f.as_vec()
    assert v.domain == Domain.vec(3, 3)
    assert np.array_equal(v.table, f.table)


def test_random_function_is_seed_deterministic(seed):
    dom = Domain.vec(3, 3)
    a = random_function(dom, np.random.default_rng(seed))
    b = random_function(dom, np.random.default_rng(seed))
    assert a == b


# ---- the expression DSL -------------------------------------------------------------------


def test_prime_field_square():
    k = make_field(3, 1)
    f = from_expr(k, "Tr(x^2)")
    assert list(f.table) == [0, 1, 1]
    g = from_expr(k, "Tr(2x^2)+1")
    assert list(g.table) == [(2 * x * x + 1) % 3 for x in range(3)]


def test_trace_expression_matches_manual_table():
    f = from_expr(F27, "Tr(x^2)")
    expected = [F27.trace_idx(F27.pow_idx(x, 2)) for x in range(27)]
    assert list(f.table) == expected
    g = from_expr(F27, "Tr(wx^4)")
    w = F27.w.index
    assert list(g.table) == [
        F27.trace_idx(F27.mul_idx(w, F27.pow_idx(x, 4))) for x in range(27)
    ]


def test_coefficient_syntax_equivalences():
    probes = [
        ("Tr(2wx^2)", "Tr(2*wx^2)"),
        ("Tr((w+1)x^2)", "Tr((1+w)x^2)"),
        ("Tr( w x ^ 2 )", "Tr(wx^2)"),
        ("Tr(g^5x)", "Tr( g^5 x )"),
        ("Tr(-wx)", "Tr(2wx)"),
        ("Tr((w-1)x)", "Tr((w+2)x)"),
    ]
    for lhs, rhs in probes:
        assert from_expr(F27, lhs) == from_expr(F27, rhs), (lhs, rhs)
    g5 = F27.g**5
    manual = [F27.trace_idx(F27.mul_idx(g5.index, x)) for x in range(27)]
    assert list(from_expr(F27, "Tr(g^5x)").table) == manual
    assert parse_coefficient(F27, "w^2+1") == F27.w**2 + 1
    assert parse_coefficient(F27, "2w+2") == 2 * F27.w + 2
    assert parse_coefficient(F27, "g") == F27.g
    assert parse_coefficient(F27, "-w") == -F27.w
    assert parse_coefficient(F27, "5") == F27.from_coeffs([5 % 3])


def test_scale_and_constant_terms():
    f = from_expr(F27, "2*Tr(x^2)+1")
    base = from_expr(F27, "Tr(x^2)")
    assert list(f.table) == [(2 * v + 1) % 3 for v in base.table]
    c = from_expr(F27, "2")
    assert set(c.table) == {2}


LARGE_PRIME_TERMS = {
    "65536*Tr(x)": lambda x: 65536 * x,
    "65536*Tr(65536x)": lambda x: 65536 * (65536 * x % 65537),
    "65536*Tr(65536x^0)": lambda x: 65536 * 65536 + 0 * x,
    "65536*Tr(x)+65536*Tr(2x)": lambda x: 65536 * x + 65536 * (2 * x % 65537),
}


@pytest.mark.parametrize("src", LARGE_PRIME_TERMS)
def test_scaled_terms_on_a_large_prime_field(src):
    """Scale times trace passes 2^31 once (p - 1)^2 does, at p = 65537; the
    table agrees with Python-int arithmetic mod p."""
    x = np.arange(65537, dtype=object)
    f = from_expr(make_field(65537, 1), src)
    assert f.table.tolist() == (LARGE_PRIME_TERMS[src](x) % 65537).tolist()


def test_multi_term_sum():
    f = from_expr(F27, "Tr(x^2)+Tr(wx^4)+2")
    a = from_expr(F27, "Tr(x^2)")
    b = from_expr(F27, "Tr(wx^4)")
    assert list(f.table) == [(x + y + 2) % 3 for x, y in zip(a.table, b.table)]


def readme_expression_examples():
    """The expressions on the README's 'Examples:' line under its expression grammar."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    line = next(ln for ln in readme.read_text().splitlines() if ln.startswith("Examples: `Tr("))
    return re.findall(r"`([^`]+)`", line)


@pytest.mark.parametrize("src", readme_expression_examples())
def test_readme_expression_examples_parse(src):
    f = from_expr(F27, src)
    assert f.domain == Domain.field(F27)
    assert f.table.min() >= 0 and f.table.max() < F27.p


def _scalar_expr(ctx, terms):
    """Truth table of sum scale * Tr(c x^e) + const, one element at a time."""
    table = []
    for x in range(ctx.q):
        total = 0
        for scale, c, e in terms:
            if c is None:
                total += scale
            else:
                total += scale * ctx.trace_idx(ctx.mul_idx(c, ctx.pow_idx(x, e)))
        table.append(total % ctx.p)
    return table


@pytest.mark.parametrize(
    "ctx", [F27, make_field(3, 4), make_field(5, 3)], ids=["f27", "f81", "f125"]
)
def test_expression_matches_scalar_evaluation(ctx, rng):
    q, p = ctx.q, ctx.p
    edge = [
        ("Tr(0 x^2)", [(1, 0, 2)]),
        ("Tr(x^0)", [(1, 1, 0)]),
        ("Tr(g^3 x^0)", [(1, ctx.pow_idx(ctx.primitive_index, 3), 0)]),
        (f"Tr(x^{q - 1})", [(1, 1, q - 1)]),
        (f"2*Tr(w x^{q})", [(2, ctx.w.index, q)]),
        (f"Tr(x^{3 * (q - 1)})", [(1, 1, 3 * (q - 1))]),
        ("1", [(1, None, 0)]),
        (f"{p + 2}", [(2, None, 0)]),
        ("Tr(x) + Tr(0 x) + 0", [(1, 1, 1), (1, 0, 1), (0, None, 0)]),
    ]
    for src, terms in edge:
        assert list(from_expr(ctx, src).table) == _scalar_expr(ctx, terms), src
    for _ in range(12):
        parts, terms = [], []
        for _ in range(int(rng.integers(1, 5))):
            if rng.random() < 0.2:
                k = int(rng.integers(0, 2 * p))
                parts.append(str(k))
                terms.append((k % p, None, 0))
                continue
            scale, k, e = (int(v) for v in rng.integers(0, (p, q, 3 * q)))
            coef = "0" if k == 0 else f"g^{k}"
            parts.append(f"{scale}*Tr({coef} x^{e})")
            terms.append((scale, 0 if k == 0 else ctx.pow_idx(ctx.primitive_index, k), e))
        src = " + ".join(parts)
        assert list(from_expr(ctx, src).table) == _scalar_expr(ctx, terms), src


# One input for each message the parser can give, with its exact text and position.
EXPR_ERRORS = [
    (from_expr, "Tr(C)", 3, "unexpected 'C'"),
    (from_expr, "Tr(x", 4, "unexpected end of input"),
    (from_expr, "Tr x", 3, "expected '('"),
    (from_expr, "Tr(x^2 x", 7, "expected ')'"),
    (from_expr, "Tr(x) Tr(x)", 6, "expected '+' between terms"),
    (from_expr, "Tr(x) +", 7, "missing term"),
    (from_expr, "x", 0, "expected a term"),
    (from_expr, "3*x", 2, "expected 'Tr'"),
    (from_expr, "Tr(g", 4, "expected 'x' after the coefficient"),  # also at end of input
    (from_expr, "Tr(x^w)", 5, "expected an exponent"),
    (from_expr, "Tr(+x)", 3, "expected a coefficient"),
    (parse_coefficient, "w 1", 2, "trailing input"),
    (parse_coefficient, "(" * 101 + "1" + ")" * 101, 100, "parentheses nested deeper than 100"),
    (from_expr, "Tr(" + "(" * 1000 + "g)x)", 103, "parentheses nested deeper than 100"),
]


def test_nesting_up_to_the_limit_parses():
    assert parse_coefficient(F27, "(" * 100 + "g^2+1" + ")" * 100) == F27.g**2 + 1


def test_expression_errors_carry_positions():
    for parse, src, pos, msg in EXPR_ERRORS:
        with pytest.raises(ExprError) as info:
            parse(F27, src)
        assert str(info.value) == f"parse error at position {pos}: {msg}", src


# ---- truth-table files ------------------------------------------------------------------


def test_tt_round_trip_field(tmp_path, rng):
    f = random_function(Domain.field(F27), rng)
    path = tmp_path / "f.tt"
    save_tt(f, path)
    g = load_tt(path)
    assert g == f  # domain equality includes modulus and primitive element


def test_tt_round_trip_mixed(tmp_path, rng):
    dom = Domain([VecPart(3, 1), FieldPart(F9), VecPart(3, 2)])
    f = random_function(dom, rng)
    path = tmp_path / "mixed.tt"
    save_tt(f, path)
    assert load_tt(path) == f


def test_tt_vec_needs_no_headers(tmp_path, rng):
    f = random_function(Domain.vec(5, 2), rng)
    text = dump_tt(f)
    assert not text.startswith("#")
    path = tmp_path / "vec.tt"
    path.write_text(text)
    assert load_tt(path) == f


def test_tt_format_shape():
    f = zero_function(Domain.field(F27))
    lines = dump_tt(f).splitlines()
    assert lines[0].startswith("# field m=3 modulus=")
    assert lines[1] == "3 3"
    assert sum(len(l.split()) for l in lines[2:]) == 27


def test_tt_ignores_blank_lines(tmp_path, rng):
    f = random_function(Domain.vec(3, 2), rng)
    text = dump_tt(f).replace("\n", "\n\n")
    path = tmp_path / "blanks.tt"
    path.write_text(text)
    assert load_tt(path) == f


@pytest.mark.parametrize(
    "content,match",
    [
        ("", "no data lines"),
        ("3\n0 1 2\n", "first data line"),
        ("# strange header\n3 1\n0 1 2\n", "unrecognized header"),
        ("3 1\n0 1\n", "expected 3 table entries"),
        ("3 1\n0 1 5\n", "must lie in 0..2"),
        ("# vec n=2\n3 1\n0 1 2\n", "headers give 2 digits"),
    ],
)
def test_tt_corrupt_files(tmp_path, content, match):
    path = tmp_path / "bad.tt"
    path.write_text(content)
    with pytest.raises(DomainError, match=match):
        load_tt(path)


# ---- the file format against the token-by-token reader and writer it replaced ---


def _dump_tt_oracle(f: PFunction) -> str:
    dom = f.domain
    lines = []
    if any(isinstance(c, FieldPart) for c in dom.components):
        for c in dom.components:
            if isinstance(c, FieldPart):
                mods = ",".join(str(d) for d in c.ctx.modulus)
                lines.append(
                    f"# field m={c.ctx.m} modulus={mods} primitive={c.ctx.primitive_index}"
                )
            else:
                lines.append(f"# vec n={c.dim}")
    lines.append(f"{dom.p} {dom.n_total}")
    vals = f.table
    for start in range(0, len(vals), 32):
        lines.append(" ".join(str(int(v)) for v in vals[start : start + 32]))
    return "\n".join(lines) + "\n"


_FIELD_HDR = re.compile(
    r"#\s*field\s+m=(\d+)\s+modulus=(\d+(?:,\d+)*)(?:\s+primitive=(\d+))?\s*$"
)
_VEC_HDR = re.compile(r"#\s*vec\s+n=(\d+)\s*$")


def _load_tt_oracle(path) -> PFunction:
    headers: list[str] = []
    body: list[str] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    headers.append(line)
                else:
                    body.append(line)
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not a text file ({exc.reason})") from None
    if not body:
        raise DomainError(f"{path}: no data lines")
    first = body[0].split()
    if len(first) != 2:
        raise DomainError(f"{path}: first data line must be 'p n_total'")
    try:
        p, n_total = int(first[0]), int(first[1])
        digits = [int(tok) for line in body[1:] for tok in line.split()]
    except ValueError as exc:
        raise DomainError(f"{path}: entries must be integers ({exc})") from None
    if exceeds_size_limit(p, n_total):
        raise DomainError(f"{path}: domain size {p}^{n_total} exceeds the limit 2^20")
    if not is_odd_prime(p):
        raise DomainError(f"{path}: p must be an odd prime, got {p}")
    comps: list = []
    if headers:
        for hdr in headers:
            mo = _FIELD_HDR.match(hdr)
            if mo:
                modulus = [int(d) for d in mo.group(2).split(",")]
                prim = int(mo.group(3)) if mo.group(3) else None
                comps.append(FieldPart(FieldCtx(p, int(mo.group(1)), modulus, prim)))
                continue
            mo = _VEC_HDR.match(hdr)
            if mo:
                comps.append(VecPart(p, int(mo.group(1))))
                continue
            raise DomainError(f"{path}: unrecognized header {hdr!r}")
        dom = Domain(comps)
        if dom.n_total != n_total:
            raise DomainError(
                f"{path}: headers give {dom.n_total} digits but the size line says {n_total}"
            )
    else:
        dom = Domain.vec(p, n_total)
    if len(digits) != dom.size:
        raise DomainError(f"{path}: expected {dom.size} table entries, found {len(digits)}")
    if any(d < 0 or d >= p for d in digits):
        raise DomainError(f"{path}: table digits must lie in 0..{p - 1}")
    return PFunction(dom, np.array(digits, dtype=np.int64))


def _outcome(loader, path):
    try:
        return loader(path)
    except (DomainError, FieldError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize(
    "dom",
    [
        Domain.vec(3, 3),
        Domain.vec(3, 12),
        Domain.vec(5, 8),
        Domain.vec(11, 3),
        Domain.vec(53, 2),
        Domain.vec(101, 2),
        Domain([VecPart(3, 1), FieldPart(F9), VecPart(3, 2)]),
    ],
    ids=["v3_3", "v3_12", "v5_8", "v11_3", "v53_2", "v101_2", "v1f9v2"],
)
def test_dump_tt_matches_token_writer(tmp_path, rng, dom):
    f = random_function(dom, rng)
    assert dump_tt(f) == _dump_tt_oracle(f)
    path = tmp_path / "f.tt"
    save_tt(f, path)
    assert load_tt(path) == f


def test_dump_tt_matches_token_writer_on_zero_field_function(tmp_path):
    f = zero_function(Domain.field(F27))
    assert dump_tt(f) == _dump_tt_oracle(f)
    path = tmp_path / "zero.tt"
    save_tt(f, path)
    assert load_tt(path) == f


_SEPARATORS = [" ", " ", "  ", "\t", "\n", "\r", "\r\n", "\n\n", "\x0b", "\x0c", "\x1c",
               "\u00a0", "\u2003"]
_BAD_TOKENS = ["x", "2.5", "-", "+", "_1", "1_", "1__0", "1e3", "0x3", "\u00e9", "3,", "#", "--1",
               "-1", "18446744073709551617", "9223372036854775808", "-18446744073709551615",
               "1" + "0" * 39, "0" * 39 + "1"]


@st.composite
def _spelled(draw, d: int) -> str:
    """One way int() reads as d: plain, zero-padded, signed, with '_', or in Arabic-Indic."""
    s = str(d)
    style = draw(st.sampled_from(["plain", "plain", "plain", "zeros", "plus", "minus", "under",
                                  "arabic"]))
    if style == "zeros":
        return "0" * draw(st.integers(1, 24)) + s
    if style == "plus":
        return "+" + s
    if style == "minus":
        return "-0" if d == 0 else s
    if style == "under":
        return s[0] + "_" + s[1:] if len(s) > 1 else "0_" + s
    if style == "arabic":
        return "".join(chr(0x660 + int(c)) for c in s)
    return s


@st.composite
def tt_file_texts(draw) -> str:
    """Truth-table text spelled every way the token-by-token reader accepted."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 53]))
    n = 1 if p == 53 else draw(st.sampled_from([1, 2]))
    digits = draw(st.lists(st.integers(0, p - 1), min_size=p**n, max_size=p**n))
    tokens = [draw(_spelled(d)) for d in digits]
    fault = draw(st.sampled_from(["none", "none", "bad", "count"]))
    if fault == "bad":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    elif fault == "count":
        tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["0"]
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(tokens),
                         max_size=len(tokens)))
    lines = "".join(tok + sep for tok, sep in zip(tokens, seps)).split("\n")
    gap = draw(st.sampled_from([" ", " ", " ", "\t", "\x1c", "\u2003", " \n"]))
    lines.insert(0, f"{p}{gap}{n}")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " \t", "\x0c"])))
    if draw(st.booleans()):
        mod = ",".join(map(str, _irreducible(p, n)))
        headers = draw(st.sampled_from([
            [f"# vec n={n}"], [f" \t# vec  n={n} "], [f"# vec n={n + 1}"], ["# vec n=x \x1c"],
            [f"# field m={n} modulus={mod}"],
            [f"\t#  field m={n}  modulus={mod} primitive={draw(st.integers(0, p**n))} "],
            [f"# field m={n} modulus=2,,1"], [f"# field m={n} modulus={mod},"],
            [f"# field m={n} modulus={'0,' * n}1"], [f"# field m={n} modulus=1,1"],
            ["# field m=1 modulus=1,1", f"# vec n={n - 1}"],
        ]))
        for header in headers:
            lines.insert(draw(st.integers(0, len(lines))), header)
    return "\n".join(lines)


def _irreducible(p: int, n: int) -> tuple[int, ...]:
    """x + 1, or x^2 + c with -c a non-square mod p, lowest coefficient first."""
    if n == 1:
        return (1, 1)
    c = next(c for c in range(1, p) if pow(-c % p, (p - 1) // 2, p) == p - 1)
    return (c, 0, 1)


@settings(max_examples=200)
@given(text=tt_file_texts())
@example(text="# field m=2 modulus=2,,1\n3 2\n0 1 2 0 1 2 0 1 2\n")
@example(text="# field m=2 modulus=1,0,1\n3 2\n0 1 2 0 1 2 0 1 2\n")
def test_load_tt_matches_token_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.tt"
        path.write_bytes(text.encode("utf-8"))
        got, expected = _outcome(load_tt, path), _outcome(_load_tt_oracle, path)
    assert type(got) is type(expected)
    assert got == expected


_BAD_LATE = "3 2\n0 1 2 0 1 2 0 1 x\n"


@settings(max_examples=200)
@given(text=tt_file_texts(), block=st.integers(1, 7))
@example(text="3 1\n0 " + "0" * 18 + "1 2\n", block=4)  # a 19-digit token across an edge
@example(text=_BAD_LATE, block=3)  # the bad token lies in a later block
@example(text="# vec n=1\r\n3 1\r\n0\x1c1\u2003\r\n# x\n2", block=1)
def test_load_tt_matches_token_reader_at_block_edges(text, block):
    """With blocks of a few bytes every token, header line, CRLF, \\x1c and
    non-ASCII space lands on a block edge; the values and errors stay."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(pfunc, "_TT_BLOCK", block)
        path = Path(tmp) / "f.tt"
        path.write_bytes(text.encode("utf-8"))
        got, expected = _outcome(load_tt, path), _outcome(_load_tt_oracle, path)
    assert type(got) is type(expected)
    assert got == expected
    if text == _BAD_LATE:
        assert got == (f"DomainError: {path}: entries must be integers "
                       "(invalid literal for int() with base 10: 'x')")


def test_load_tt_temporaries_do_not_grow_with_the_table(tmp_path, rng):
    """load_tt's tracemalloc peak, less the table it returns, grows by less
    than 2 MiB from 3^10 to 3^12 points (it grew by about 25 MiB when the
    whole body was parsed at once): the parse temporaries scale with
    _TT_BLOCK, and only the text, 0.95 MB larger, and its copies grow."""
    extra = {}
    for n in (10, 12):
        f = random_function(Domain.vec(3, n), rng)
        path = tmp_path / f"v3_{n}.tt"
        save_tt(f, path)
        g, peak = traced_peak(lambda: load_tt(path))
        extra[n] = peak - g.table.nbytes
        assert g == f
    assert extra[12] - extra[10] < 2 << 20
