"""End-to-end command-line tests, run in-process through main()."""
import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import example, given, settings, strategies as st

import pbent.bent as bent_module
import pbent.cli as cli
import pbent.constructions as constructions_module
import pbent.field as field_module
import pbent.walsh as walsh_module
from pbent.bent import NON_WEAKLY_REGULAR, classify
from pbent.cli import main
from pbent.constructions import (
    ConstructionError,
    NdCorSpec,
    SdsSpec,
    agw_combine,
    cm_bent,
    cor1_family,
    coordinate_product,
    direct_sum,
    monomial_bent,
    ndcor_function,
    sds_dual,
    sds_is_bent_condition,
    semi_direct_sum,
    sporadic,
)
from pbent.cyclo import root_power
from pbent.field import make_field
from pbent.pfunc import (
    Domain,
    PFunction,
    VecPart,
    dump_tt,
    from_expr,
    load_tt,
    random_function,
    save_tt,
)
from pbent.walsh import walsh_fast

F27 = make_field(3, 3)
F81 = make_field(3, 4)
F243 = make_field(3, 5, (1, 2, 0, 0, 0, 1))  # x^5 + 2x + 1
MOD36 = "2,1,0,0,0,0,1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- classify / spectrum / dual ---------------------------------------------------


def test_classify_expr_matches_library(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--m", "3", "--expr", "Tr(x^2)")
    assert code == 0
    blob = json.loads(out)
    expected = classify(from_expr(F27, "Tr(x^2)")).to_json()
    assert blob == expected
    assert blob["bent"] is True
    assert blob["regularity"] == "weakly_regular_not_regular"


def test_classify_tt_equals_classify_expr(capsys, tmp_path):
    path = tmp_path / "f.tt"
    save_tt(from_expr(F27, "Tr(x^2)"), path)
    code_tt, out_tt, _ = run(capsys, "classify", "--tt", str(path))
    code_ex, out_ex, _ = run(capsys, "classify", "--p", "3", "--m", "3", "--expr", "Tr(x^2)")
    assert code_tt == code_ex == 0
    assert out_tt == out_ex


def test_classify_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--p", "3", "--m", "3", "--expr", "Tr(x^2)")
    _, out2, _ = run(capsys, "classify", "--p", "3", "--m", "3", "--expr", "Tr(x^2)")
    assert out1 == out2


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--p", "3", "--m", "3", "--expr", "Tr(x^2)")
    assert code == 0
    blob = json.loads(out)
    assert blob["abs_sq_histogram"] == {"27": 27}
    assert len(blob["values"]) == 27
    assert blob == walsh_fast(from_expr(F27, "Tr(x^2)")).to_json()


def test_dual_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "dual.tt"
    code, _, _ = run(
        capsys, "dual", "--p", "3", "--m", "3", "--expr", "Tr(x^2)",
        "--out", str(out_path),
    )
    assert code == 0
    dual = load_tt(out_path)
    assert np.array_equal(dual.table, (2 * from_expr(F27, "Tr(x^2)").table) % 3)
    # the dual of this dual is the original again
    dd_path = tmp_path / "dd.tt"
    code2, _, _ = run(capsys, "dual", "--tt", str(out_path), "--out", str(dd_path))
    assert code2 == 0
    assert load_tt(dd_path) == from_expr(F27, "Tr(x^2)")


@pytest.mark.parametrize(
    "build,regularity,dual_bent",
    [
        (lambda: from_expr(F81, "Tr(wx^2)"), "regular", True),
        (lambda: from_expr(F27, "Tr(x^2)"), "weakly_regular_not_regular", True),
        # its eta pattern is dual bent but not constant
        (lambda: ndcor_function(NdCorSpec(F243, F243.w, F243.w**4 + F243.w**2 + F243.w)),
         NON_WEAKLY_REGULAR, True),
        (lambda: ndcor_function(NdCorSpec(F27, F27.w, F27.w**2)), NON_WEAKLY_REGULAR, False),
        (lambda: sporadic("g2", F81, 0), NON_WEAKLY_REGULAR, False),
    ],
    ids=["regular", "weakly-regular", "ndcor-dual-bent", "ndcor", "sporadic-g2"],
)
def test_dual_writes_classify_dual(capsys, tmp_path, build, regularity, dual_bent):
    f = build()
    rep = classify(f)
    assert (rep.regularity, rep.dual_is_bent) == (regularity, dual_bent)
    in_path, out_path = tmp_path / "f.tt", tmp_path / "dual.tt"
    save_tt(f, in_path)
    code, out, err = run(capsys, "dual", "--tt", str(in_path), "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_bytes() == dump_tt(rep.dual).encode()


def test_dual_runs_one_transform(capsys, monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return walsh_fast(f)

    monkeypatch.setattr(cli, "walsh_fast", counted)
    monkeypatch.setattr(bent_module, "walsh_fast", counted)
    code, _, _ = run(capsys, "dual", "--p", "3", "--m", "3", "--expr", "Tr(x^2)")
    assert code == 0
    assert len(calls) == 1


def test_dual_on_f5_8_forms_no_digit_table(capsys, monkeypatch, tmp_path):
    """`dual --expr` builds the field, the expression and the pairing
    permutation in index space: the q x m digit table stays unbuilt."""
    fields = []

    def recorded(*args):
        fields.append(make_field(*args))
        return fields[-1]

    monkeypatch.setattr(cli, "make_field", recorded)
    expr = "Tr((3w^7 + w^3 + 2) x^2) + Tr((w^5 + 4w + 1) x)"
    out = tmp_path / "dual.tt"
    code, _, err = run(capsys, "dual", "--p", "5", "--m", "8", "--modulus", "1,0,0,0,0,1,1,0,1",
                       "--expr", expr, "--out", str(out))
    assert (code, err) == (0, "")
    assert len(fields) == 1 and "digits" not in fields[0].__dict__


def test_dual_on_f5_8_memory(capsys, tmp_path):
    """The whole command, field tables and output file included: the
    spectrum stays float32 rows and extract_dual writes its int8 table and
    int8 unit map a block at a time; the pairing permutation is int32, and
    dump_tt casts the table to intp a block at a time.  The field's int32
    tables are freed once from_expr returns, since the domain keeps only
    the Gram block and header fields: about 11.8 MiB.  With an int64
    spectrum, an int64 unit map and a position per row, the command peaked
    at about 36 MiB, with int64 field tables and a permuted copy of the
    table at 27 MiB, with int64 truth tables at 17.4 MiB, and while the
    domain held the field at 14.9 MiB."""
    out = tmp_path / "dual.tt"
    (code, _, err), peak = traced_peak(lambda: run(
        capsys, "dual", "--p", "5", "--m", "8", "--modulus", "1,0,0,0,0,1,1,0,1",
        "--expr", "Tr(2x^2) + Tr(x)", "--out", str(out),
    ))
    assert (code, err) == (0, "")
    assert peak <= 13 << 20


def _count_layers(monkeypatch) -> tuple[list, list]:
    """Record the coefficient rows of every |W|^2 formed and the stack of
    spectra of every bent-candidate match."""
    abs_sq, matched = [], []
    orig_abs_sq, orig_match = walsh_module._abs_sq, bent_module._match

    def counted_abs_sq(values, p):
        abs_sq.append(values)
        return orig_abs_sq(values, p)

    def counted_match(rows, p, n, duals=True):
        matched.append(rows)
        return orig_match(rows, p, n, duals)

    monkeypatch.setattr(walsh_module, "_abs_sq", counted_abs_sq)
    for module in (bent_module, constructions_module):
        monkeypatch.setattr(module, "_match", counted_match)
    return abs_sq, matched


@pytest.mark.parametrize("expr, code", [("Tr(x^2)", 0), ("0", 1)])
def test_dual_forms_no_abs_sq_and_matches_once(capsys, monkeypatch, expr, code):
    abs_sq, matched = _count_layers(monkeypatch)
    assert run(capsys, "dual", "--p", "3", "--m", "3", "--expr", expr)[0] == code
    assert (len(abs_sq), len(matched)) == (0, 1)


def test_classify_forms_abs_sq_only_for_a_non_bent_histogram(capsys, monkeypatch, tmp_path):
    """A bent spectrum's histogram is {p^n: N} from the verdict; only a
    non-bent one forms |W|^2, in two passes (the histogram keys' column
    ranges, then the keys).  Only a non-weakly regular f's dual is
    transformed and matched: a constant unit map makes the dual bent."""
    abs_sq, matched = _count_layers(monkeypatch)
    code, out, _ = run(capsys, "classify", "--p", "3", "--m", "3", "--expr", "Tr(x^2)")
    assert code == 0 and json.loads(out)["spectrum_histogram"] == {"27": 27}
    assert json.loads(out)["dual_bent"] is True
    W = walsh_fast(from_expr(F27, "Tr(x^2)"))
    assert len(matched) == 1 and np.array_equal(matched[0], W.rows[None])
    assert abs_sq == []
    path = tmp_path / "ndcor.tt"
    argv = ("--p", "3", "--m", "3", "--alpha", "w", "--beta", "w^2+1", "--out", str(path))
    assert run(capsys, "construct", "ndcor", *argv)[0] == 0
    del matched[:]
    code, out, _ = run(capsys, "classify", "--tt", str(path))
    assert code == 0 and json.loads(out)["regularity"] == NON_WEAKLY_REGULAR
    assert json.loads(out)["dual_bent"] is False
    # f's spectrum, then its dual's, each matched once
    f = load_tt(path)
    assert len(matched) == 2 and abs_sq == []
    assert np.array_equal(matched[0], walsh_fast(f).rows[None])
    assert np.array_equal(matched[1], walsh_fast(classify(f).dual).rows[None])
    del matched[:]
    code, out, _ = run(capsys, "classify", "--p", "3", "--m", "3", "--expr", "Tr(x^3)")
    assert code == 0 and json.loads(out)["bent"] is False
    W = walsh_fast(from_expr(F27, "Tr(x^3)"))
    assert len(abs_sq) == 2 and all(np.array_equal(rows, W.values) for rows in abs_sq)
    assert len(matched) == 1 and np.array_equal(matched[0], W.rows[None])


def test_construction_duals_match_each_spectrum_once(monkeypatch):
    """sds_dual matches the spectra of the p^n slices G_b as one stack, once,
    and names the first bad b of the first slice that is not bent.  The
    spec keeps that match, so the criterion, then the dual, as
    demos/05_recursive_constructions.py calls them, match the stack once."""
    f = from_expr(F27, "Tr(x^2)")
    h = [from_expr(F27, "Tr(wx^2)"), from_expr(F27, "Tr(w^2x^2)")]
    spec = SdsSpec(f=f, g=coordinate_product(3), h=h)
    abs_sq, matched = _count_layers(monkeypatch)
    assert sds_is_bent_condition(spec)
    dual = sds_dual(spec)
    assert len(matched) == 1 and matched[0].shape == (9, 27, 2) and abs_sq == []
    assert np.array_equal(dual.table, classify(semi_direct_sum(spec)).dual.table)
    spec = SdsSpec(f=f, g=PFunction(Domain.vec(3, 1), [0, 1, 1]), h=[f])  # G_2 = 0
    del matched[:]
    assert sds_is_bent_condition(spec) == (False, 2)
    with pytest.raises(ConstructionError, match=r"not bent \(witness b=0\)"):
        sds_dual(spec)
    assert len(matched) == 1 and abs_sq == []


def test_dual_of_x_squared_on_a_1009_point_table(capsys, tmp_path):
    """x^2 - b x = (x - b/2)^2 - b^2/4, so W(b) = g_p e^(-b^2/4) and the dual
    is -b^2/4 mod p."""
    p = 1009
    x = np.arange(p)
    in_path, out_path = tmp_path / "sq.tt", tmp_path / "dual.tt"
    save_tt(PFunction(Domain.vec(p, 1), x * x % p), in_path)
    code, out, err = run(capsys, "dual", "--tt", str(in_path), "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert np.array_equal(load_tt(out_path).table, -pow(4, -1, p) * x * x % p)


def test_dual_of_non_bent_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "dual", "--p", "3", "--m", "3", "--expr", "0")
    assert (code, out, err) == (1, "", "not bent (witness b=0); no dual exists\n")
    path = tmp_path / "f.tt"  # |W(b)|^2 = 9 at b = 0 and 1, not at 2
    save_tt(PFunction(Domain.vec(3, 2), np.array([2, 2, 1, 1, 0, 0, 0, 0, 0])), path)
    code, out, err = run(capsys, "dual", "--tt", str(path))
    assert (code, out, err) == (1, "", "not bent (witness b=2); no dual exists\n")


# ---- config errors ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--p", "3", "--m", "3"),  # no input
        ("classify", "--p", "4", "--m", "2", "--expr", "Tr(x^2)"),  # even p
        ("classify", "--p", "3", "--m", "3", "--modulus", "1,0,1", "--expr", "Tr(x^2)"),
        ("classify", "--p", "3", "--m", "3", "--modulus", "1,0,x", "--expr", "Tr(x^2)"),
        ("classify", "--expr", "Tr(x^2)"),  # missing field flags
        ("classify", "--p", "3", "--m", "3", "--expr", "Tr(y)"),  # parse error
        ("classify", "--p", "3", "--m", "2", "--modulus", "2,0,1", "--expr", "Tr(x^2)"),
        ("search", "--p", "3", "--m", "3", "--width", "0"),
        ("search", "--p", "3", "--m", "2", "--modulus", "1,0,1"),  # m < 3
        ("search", "--p", "3", "--m", "3", "--limit", "-1"),
        ("construct", "sporadic", "--name", "g1"),  # missing modulus
        ("construct", "sporadic", "--p", "3", "--m", "4", "--name", "g2", "--variant", "7"),
        ("construct", "monomial", "--p", "3", "--m", "4", "--alpha", "w", "--k", "2"),
        ("classify", "--tt", "/nonexistent/path.tt"),
        ("classify", "--p", "3", "--m", "3", "--expr=--"),  # argparse drops "--"
        ("search", "--p=--", "--m", "3"),
        ("construct", "sds", "--f", "f.tt", "--g", "g.tt", "--h=--"),
    ],
)
def test_bad_configs_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "table",
    [
        b"4 1\n0 1 2 3\n",  # p not prime
        b"9 1\n0 1 2 3 4 5 6 7 8\n",  # p an odd prime power
        b"0 1\n",
        b"1 1\n0\n",
        b"x 1\n0 1 2\n",  # size token not an integer
        b"3 1\n0 x 2\n",  # digit token not an integer
        b"3 1\n0 2.5 2\n",
        b"3 1\n0 \xff 2\n",  # not UTF-8
    ],
)
def test_malformed_truth_table_exits_2(capsys, tmp_path, table):
    path = tmp_path / "bad.tt"
    path.write_bytes(table)
    code, _, err = run(capsys, "classify", "--tt", str(path))
    assert code == 2
    assert err.startswith("error:")


# Tokens past p - 1 at the edges of the table dtypes (int8 holds 127, int16
# 32767; 256 and 2^63 wrap to 0 in int8 and int64), at p = 3, 127 and 131.
_EDGE_TOKENS = [
    pytest.param(p, str(t).encode(), id=f"p{p}-{t}")
    for p in (3, 127, 131)
    for t in dict.fromkeys((p, 127, 128, 255, 256, 32767, 32768, 2**63, -1))
    if not 0 <= t < p
]


@pytest.mark.parametrize(
    "p, token",
    [
        pytest.param(3, token, id=token.decode())
        for token in (
            b"18446744073709551617",  # 2^64 + 1: wraps to 1 mod 2^64
            b"9223372036854775808",  # 2^63: wraps to -2^63 in int64
            b"-18446744073709551615",  # wraps to 1 mod 2^64
            b"1" + b"0" * 39,
        )
    ] + _EDGE_TOKENS,
)
def test_huge_digit_tokens_exit_2(capsys, tmp_path, p, token):
    """Digit tokens beyond int64 are out of range, never read modulo 2^64,
    and tokens past p - 1 never wrap into range in the table's dtype."""
    path = tmp_path / "huge-digit.tt"
    path.write_bytes(f"{p} 1\n0 ".encode() + token + b" 2" * (p - 2) + b"\n")
    code, _, err = run(capsys, "classify", "--tt", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert f"table digits must lie in 0..{p - 1}" in err


@pytest.mark.parametrize(
    "table",
    [
        b"3 100000000\n0 1 2\n",
        b"# vec n=100000000\n3 2\n0\n",
        b"# field m=100000000 modulus=1,0,1\n3 2\n0\n",
        b"2305843009213693951 3\n0\n",
        b"2305843009213693951 0\n0\n",
        b"1180591620717411303424 1\n36893488147419103232\n",  # p = 2^70, a digit of 2^65
    ],
)
def test_huge_truth_table_sizes_exit_2_at_once(capsys, tmp_path, table):
    path = tmp_path / "huge.tt"
    path.write_bytes(table)
    start = time.perf_counter()
    code, _, err = run(capsys, "classify", "--tt", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--p", "2305843009213693951", "--m", "3", "--modulus", "1,0,0,1",
         "--expr", "Tr(x^2)"),
        ("search", "--p", "2305843009213693951", "--m", "3", "--modulus", "1,0,0,1"),
        ("construct", "monomial", "--p", "2305843009213693951", "--m", "3",
         "--modulus", "1,0,0,1", "--alpha", "1"),
        ("classify", "--p", "1048573", "--m", "1", "--expr", "Tr(x^2)"),  # N*p = 2^40
        ("search", "--p", "17", "--m", "3", "--modulus", "1,0,3,1"),  # F has 17^5 points
    ],
)
def test_huge_field_flags_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error:")


def test_large_prime_truth_table_classifies(capsys, tmp_path):
    """53^2 points: the transform runs the gather stage, in bounded memory."""
    dom = Domain.vec(53, 2)
    D = dom.digits_matrix()
    path = tmp_path / "squares53.tt"
    save_tt(PFunction(dom, (D * D).sum(axis=1) % 53), path)
    code, out, err = run(capsys, "classify", "--tt", str(path))
    assert (code, err) == (0, "")
    blob = json.loads(out)
    assert blob["bent"] is True
    assert blob["regularity"] == "regular"


_JUNK = st.sampled_from(["x", "2.5", "-", "1e3", "0x3", "\u00e9", "3,"])
# an irreducible x^2 + c per prime, for a '# field m=2' header
_QUADRATIC = {3: "1,0,1", 5: "2,0,1", 7: "1,0,1", 11: "1,0,1", 13: "11,0,1"}


@st.composite
def tt_headers(draw, p: int, n: int, fault: str) -> list[str]:
    """'# field' / '# vec' header lines for a p^n table, or none; a 'modulus'
    or 'primitive' fault puts a field header in and breaks that part of it."""
    layouts = ["field", "field+vec"]
    if fault not in ("modulus", "primitive"):
        layouts += ["none", "vec"]
    layout = draw(st.sampled_from(layouts))
    if layout == "none":
        return []
    if layout == "vec":
        return [f"# vec n={n}"]
    m = n if layout == "field" or n < 2 else 1
    modulus = "0,1" if m == 1 else _QUADRATIC[p]
    if fault == "modulus":
        modulus = draw(st.sampled_from([modulus + ",", modulus.replace(",", ",,", 1)]))
    field = f"# field m={m} modulus={modulus}"
    if fault == "primitive":
        field += f" primitive={draw(st.sampled_from([0, p**m, 10**23]))}"
    return [field] + ([f"# vec n={n - m}"] if m < n else [])


@st.composite
def tt_texts(draw) -> str:
    """Truth-table text: headers, a size line and digit tokens, with at most
    one fault."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 3, 5, 7, -1, 0, 1, 2, 4, 9, 127, 131]))
    # one digit at 127 and 131, whose two-digit tables are too long to draw
    n = draw(st.sampled_from([1, 0, -1] if p > 13 else [1, 2, 1, 2, 0, -1]))
    count = p**n if p >= 3 and n >= 1 else 3
    digits = draw(st.lists(st.integers(0, max(p - 1, 0)), min_size=count, max_size=count))
    tokens = [str(p), str(n)] + [str(d) for d in digits]
    fault = draw(st.sampled_from(
        ["none", "junk", "range", "count", "overflow", "modulus", "primitive"]
    ))
    headers = draw(tt_headers(p, n, fault)) if p in _QUADRATIC and n >= 1 else []
    if fault == "junk":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_JUNK)
    elif fault == "range":
        tokens[draw(st.integers(2, len(tokens) - 1))] = draw(st.sampled_from(["-1", str(p)]))
    elif fault == "count":
        tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["0"]
    elif fault == "overflow":
        big = draw(st.one_of(st.integers(10**19, 10**40), st.sampled_from([2**63, 2**64 + 1])))
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from([str(big), f"-{big}", f"{big:0>40}", "0" * 19 + "1"])
        )
    lines = headers + [" ".join(tokens[:2]), " ".join(tokens[2:])]
    return "\n".join(lines) + "\n"


@settings(max_examples=100)
@given(text=tt_texts())
@example(text="# field m=1 modulus=0,1 primitive=3\n3 1\n0 1 2\n")
@example(text="# field m=2 modulus=1,,1\n3 2\n" + "0 " * 9 + "\n")
def test_truth_table_text_never_escapes_the_exit_contract(text):
    """Every table command reads the text the same way: exit 0, or 2 with
    an error line, or for dual 1 with its not-bent line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.tt"
        path.write_text(text, encoding="utf-8")
        for command in ("classify", "dual", "spectrum"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--tt", str(path)])
            err = err.getvalue()
            assert "Traceback" not in err
            assert code in ((0, 1, 2) if command == "dual" else (0, 2)), (command, code, err)
            if code == 1:
                assert re.fullmatch(r"not bent \(witness b=\d+\); no dual exists\n", err)
            if code == 2:
                assert err.startswith("error:"), (command, err)


def _run_quietly(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process run; argparse's own usage
    errors arrive as SystemExit.  Any other exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _assert_exit_contract(argv, verdict_command: bool) -> None:
    code, err = _run_quietly(argv)
    assert code in ((0, 1, 2) if verdict_command else (0, 2)), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert "error:" in err, (argv, err)


# field flags with p <= 7 and m <= 3; m > 1 off the built-in table needs --modulus
_FIELD_FLAGS = [
    ("3", "1", None), ("3", "2", "1,0,1"), ("3", "3", None), ("5", "1", None),
    ("5", "2", "2,0,1"), ("5", "3", None), ("7", "1", None), ("7", "2", "1,0,1"),
    ("7", "3", "5,0,0,1"),
]


def _field_argv(flags) -> list[str]:
    p, m, mod = flags
    return ["--p", p, "--m", m] + ([f"--modulus={mod}"] if mod else [])


def _near(valid: list[str], tokens: list[str]):
    """Token soup, or a valid string with a short span replaced by a token."""

    @st.composite
    def texts(draw) -> str:
        if draw(st.booleans()):
            return "".join(draw(st.lists(st.sampled_from(tokens), max_size=10)))
        text = draw(st.sampled_from(valid))
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        return text[:i] + draw(st.sampled_from(tokens + [""])) + text[i + cut:]

    return texts()


_exprs = _near(
    ["Tr(x^2)", "Tr(w x^2) + 1", "2*Tr(g^3 x^4) + Tr(x)", "Tr((w+1)x^2)"],
    ["Tr", "(", ")", "x", "^", "g", "w", "+", "-", "*", " ", "0", "2", "10", "x^2",
     "y", "#", ";", "\u00e9"],
)
_MOD_TOKENS = ["0", "1", "2", "6", ",", ",,", "-1", "x", " ", "1.5", "99999999999999999999"]
_moduli = _near(["0,1", "1,0,1", "2,0,1", "2,0,1,1", "1,1,0,1", "5,0,0,1"], _MOD_TOKENS)
_moduli_36 = _near(["2,1,0,0,0,0,1", "1,0,0,0,1,1,1", "1,0,0,0,0,0,1"], _MOD_TOKENS)
_coefs = _near(
    ["g^7", "w^2+1", "2", "w", "(w+1)*g", "-g^2"],
    ["g", "w", "^", "0", "1", "2", "10", "+", "-", "*", "(", ")", " ", "x", "Tr", ";", "?"],
)


@settings(max_examples=50)
@given(
    command=st.sampled_from(["classify", "dual", "spectrum"]),
    flags=st.sampled_from(_FIELD_FLAGS),
    expr=_exprs,
)
# Nesting past the parser's depth limit, which once hit the recursion limit.
# Hypothesis lifts that limit by 2,000 frames while a test runs, and a level
# takes three, so only the depth-1,000 examples reach it here.
@example(command="classify", flags=("3", "3", None), expr=f"Tr({'(' * 400}x{')' * 400}^2)")
@example(command="dual", flags=("3", "3", None), expr=f"Tr({'(' * 1000}x{')' * 1000}^2)")
def test_malformed_expr_never_escapes_the_exit_contract(command, flags, expr):
    argv = [command] + _field_argv(flags) + [f"--expr={expr}"]
    _assert_exit_contract(argv, verdict_command=command == "dual")


@settings(max_examples=50)
@given(p=st.sampled_from(["3", "5", "7"]), m=st.sampled_from(["1", "2", "3"]), mod=_moduli)
def test_malformed_modulus_never_escapes_the_exit_contract(p, m, mod):
    argv = ["classify", "--p", p, "--m", m, f"--modulus={mod}", "--expr=Tr(x^2)"]
    _assert_exit_contract(argv, verdict_command=False)


@settings(max_examples=50)
@given(mod=_moduli_36)
def test_malformed_modulus_36_never_escapes_the_exit_contract(mod):
    _assert_exit_contract(["verify-paper", f"--modulus-36={mod}"], verdict_command=True)


@settings(max_examples=50)
@given(
    sub=st.sampled_from(["monomial", "cm", "ndcor", "cor1"]),
    flags=st.sampled_from([f for f in _FIELD_FLAGS if f[1] == "3"]),
    a=_coefs,
    b=_coefs,
)
@example(sub="monomial", flags=("3", "3", None), a="(" * 1000 + "1" + ")" * 1000, b="1")
def test_malformed_coefficients_never_escape_the_exit_contract(sub, flags, a, b):
    argv = ["construct", sub] + _field_argv(flags)
    if sub == "ndcor":
        argv += [f"--alpha={a}", f"--beta={b}"]
    elif sub == "cor1":
        argv += [f"--alphas={a};{b}"]
    else:
        argv += [f"--alpha={a}"]
    _assert_exit_contract(argv, verdict_command=False)


F9 = make_field(3, 2, (1, 0, 1))
# Well-formed tables for the constructions that read them: bent and not, on
# vector and field domains, at p = 3 and 5, of several sizes.
_TABLES = {
    "sq3": PFunction(Domain.vec(3, 1), [0, 1, 1]),
    "zero3": PFunction(Domain.vec(3, 1), [0, 0, 0]),
    "prod3": coordinate_product(3),
    "rand3_2": PFunction(Domain.vec(3, 2), [2, 0, 1, 1, 0, 2, 2, 1, 0]),
    "sq5": PFunction(Domain.vec(5, 1), [0, 1, 4, 4, 1]),
    "prod5": coordinate_product(5),
    "trF9": from_expr(F9, "Tr(x^2)"),
    "trwF9": from_expr(F9, "Tr(w x^2)"),
    "cubeF9": from_expr(F9, "Tr(x^3)"),
    "trF27": from_expr(F27, "Tr(x^2)"),
}
_names = st.sampled_from(sorted(_TABLES))


@settings(max_examples=100)
@given(
    sub=st.sampled_from(["sds", "agw", "directsum", "cor1"]),
    f=_names, g=_names, h=st.lists(_names, max_size=3), inputs=st.lists(_names, max_size=6),
    alphas=st.sampled_from(["1;w", "1;w;w^2", "1;w;w^2;w+1"]),
    out=st.sampled_from(["stdout", "file", "directory", "missing directory"]),
)
@example(sub="sds", f="trF9", g="sq3", h=["trwF9"], inputs=[], alphas="1;w", out="file")
@example(sub="agw", f="sq3", g="sq3", h=[], inputs=["rand3_2", "prod3", "prod3"], alphas="1;w",
         out="missing directory")
@example(sub="sds", f="trF9", g="prod3", h=["trwF9"], inputs=[], alphas="1;w", out="stdout")
@example(sub="sds", f="trF9", g="zero3", h=["trF9"], inputs=[], alphas="1;w", out="stdout")
@example(sub="sds", f="trF9", g="sq5", h=["trF9"], inputs=[], alphas="1;w", out="directory")
@example(sub="cor1", f="sq3", g="zero3", h=[], inputs=[], alphas="1;w", out="stdout")
@example(sub="cor1", f="sq3", g="prod3", h=[], inputs=[], alphas="1;w;w^2", out="file")
def test_table_constructions_never_escape_the_exit_contract(sub, f, g, h, inputs, alphas, out):
    """construct sds, agw, directsum and cor1 --g on well-formed tables with
    mismatched p, sizes or field/vector headers, a non-bent g, wrong --h
    counts, and --out at a directory or under a missing one: exit 0, or 2
    with an error line, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        def path(name: str) -> str:
            save_tt(_TABLES[name], Path(tmp) / name)
            return str(Path(tmp) / name)

        if sub == "sds":
            argv = ["--f", path(f), "--g", path(g)] + [f"--h={path(name)}" for name in h]
        elif sub == "cor1":
            argv = ["--p", "3", "--m", "3", f"--alphas={alphas}", "--g", path(g)]
        else:
            argv = [path(name) for name in ([f, g] if sub == "directsum" else inputs)]
        target = {"stdout": [], "file": ["out.tt"], "directory": [], "missing directory": ["no", "out.tt"]}
        argv += [] if out == "stdout" else ["--out", str(Path(tmp).joinpath(*target[out]))]
        code, err = _run_quietly(["construct", sub] + argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert "error:" in err, (argv, err)


def test_tt_and_expr_together_exit_2(capsys, tmp_path):
    path = tmp_path / "f.tt"
    save_tt(from_expr(F27, "Tr(x^2)"), path)
    code, _, err = run(
        capsys, "classify", "--p", "3", "--m", "3",
        "--tt", str(path), "--expr", "Tr(x^2)",
    )
    assert code == 2
    assert "either --tt or --expr" in err


def test_corrupted_builtin_modulus_exits_2(capsys, monkeypatch):
    monkeypatch.setitem(field_module.BUILTIN_MODULI, (3, 3), (0, 0, 0, 1))  # x^3: reducible
    code, _, err = run(capsys, "classify", "--p", "3", "--m", "3", "--expr", "Tr(x^2)")
    assert code == 2
    assert "reducible" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_seed_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "classify", "--p", "3", "--m", "3", "--expr", "Tr(x^2)"])
    assert exc.value.code == 2
    assert "pbent: error:" in capsys.readouterr().err


# ---- construct subcommands vs the library ---------------------------------------------


def construct_to_function(capsys, tmp_path, *argv) -> PFunction:
    out_path = tmp_path / "out.tt"
    code, _, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    return load_tt(out_path)


def test_construct_monomial(capsys, tmp_path):
    got = construct_to_function(
        capsys, tmp_path, "construct", "monomial",
        "--p", "3", "--m", "3", "--alpha", "w", "--k", "0",
    )
    assert got == monomial_bent(F27, F27.w, 0)


def test_construct_cm_default_k(capsys, tmp_path):
    got = construct_to_function(
        capsys, tmp_path, "construct", "cm", "--p", "3", "--m", "3", "--alpha", "w^2+1",
    )
    assert got == cm_bent(F27, F27.w**2 + 1, 1)


def test_construct_directsum(capsys, tmp_path):
    f = from_expr(F27, "Tr(x^2)")
    g = coordinate_product(3)
    fp, gp = tmp_path / "f.tt", tmp_path / "g.tt"
    save_tt(f, fp)
    save_tt(g, gp)
    got = construct_to_function(capsys, tmp_path, "construct", "directsum", str(fp), str(gp))
    assert got == direct_sum(f, g)


def test_construct_sds(capsys, tmp_path):
    f = from_expr(F27, "Tr(x^2)")
    g = coordinate_product(3)
    h = [from_expr(F27, "Tr(wx^2)"), from_expr(F27, "Tr(w^2x^2)")]
    paths = {}
    for name, fn in [("f", f), ("g", g), ("h0", h[0]), ("h1", h[1])]:
        paths[name] = tmp_path / f"{name}.tt"
        save_tt(fn, paths[name])
    got = construct_to_function(
        capsys, tmp_path, "construct", "sds",
        "--f", str(paths["f"]), "--g", str(paths["g"]),
        "--h", str(paths["h0"]), "--h", str(paths["h1"]),
    )
    assert got == semi_direct_sum(SdsSpec(f=f, g=g, h=h))


def test_construct_cor1_mixed(capsys, tmp_path):
    got = construct_to_function(
        capsys, tmp_path, "construct", "cor1",
        "--p", "3", "--m", "3", "--alphas", "1;w+1",
    )
    expected = cor1_family(
        F27, "monomial", 0, [F27.one, F27.w + 1],
        PFunction(Domain.vec(3, 1), [0, 1, 1]),
    )
    assert np.array_equal(got.table, expected.function.table)


def test_construct_cor1_constant_note(capsys, tmp_path):
    out_path = tmp_path / "out.tt"
    code, _, err = run(
        capsys, "construct", "cor1", "--p", "3", "--m", "3",
        "--alphas", "1;w", "--out", str(out_path),
    )
    assert code == 0
    assert "one character class" in err


def test_construct_cor1_single_coefficient_is_refused(capsys, tmp_path):
    """One coefficient is refused with the same message whether or not --g
    supplies the outer function."""
    g_path = tmp_path / "g.tt"
    save_tt(PFunction(Domain.vec(3, 1), [0, 1, 1]), g_path)
    base = ("construct", "cor1", "--p", "3", "--m", "3", "--alphas", "1")
    for argv in (base, base + ("--g", str(g_path))):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.tt"))
        assert code == 2 and out == ""
        assert err == "error: need at least two coefficients\n", argv


def test_construct_ndcor(capsys, tmp_path):
    got = construct_to_function(
        capsys, tmp_path, "construct", "ndcor",
        "--p", "3", "--m", "3", "--alpha", "w", "--beta", "w^2",
    )
    assert got.table.shape == (243,)
    expected = ndcor_function(NdCorSpec(F27, F27.w, F27.w**2))
    assert np.array_equal(got.table, expected.table)


def test_construct_agw_accepts_field_tables(capsys, tmp_path):
    fns = [
        from_expr(F27, "Tr(x^2)"),
        from_expr(F27, "Tr(wx^2)"),
        from_expr(F27, "Tr(w^2x^2)"),
    ]
    paths = []
    for i, fn in enumerate(fns):
        path = tmp_path / f"a{i}.tt"
        save_tt(fn, path)
        paths.append(str(path))
    got = construct_to_function(capsys, tmp_path, "construct", "agw", *paths)
    expected = agw_combine([fn.as_vec() for fn in fns])
    assert got == expected
    assert classify(got).is_bent


def test_construct_sporadic_g2(capsys, tmp_path):
    got = construct_to_function(
        capsys, tmp_path, "construct", "sporadic",
        "--p", "3", "--m", "4", "--name", "g2", "--variant", "0",
    )
    assert got == sporadic("g2", make_field(3, 4), 0)


def test_construct_sporadic_g1_with_modulus(capsys, tmp_path):
    got = construct_to_function(
        capsys, tmp_path, "construct", "sporadic",
        "--p", "3", "--m", "6", "--modulus", MOD36, "--name", "g1",
    )
    ctx = make_field(3, 6, (2, 1, 0, 0, 0, 0, 1))
    assert got == sporadic("g1", ctx)


@pytest.mark.parametrize(
    "argv",
    [
        ("--name", "g2", "--p", "5", "--m", "3", "--variant", "1"),
        ("--name", "g1", "--p", "7", "--m", "6", "--modulus", "2,1,0,0,0,0,1", "--variant", "3"),
        ("--name", "g1", "--p", "3", "--m", "6", "--modulus", MOD36, "--variant", "0"),
        ("--name", "g3", "--m", "4"),
        ("--name", "g2", "--p", "3", "--m", "3", "--variant", "0"),
    ],
    ids=["g2-F125", "g1-p7", "g1-variant", "g3-F81", "g2-F27"],
)
def test_construct_sporadic_refuses_other_fields_and_variants(capsys, tmp_path, argv):
    """The field flags are read, not dropped: a field or variant the example
    does not have is one error line and exit 2, with no output file."""
    out_path = tmp_path / "out.tt"
    code, out, err = run(capsys, "construct", "sporadic", *argv, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


# ---- search ---------------------------------------------------------------------------


def search_lines(capsys, tmp_path, *extra):
    out_path = tmp_path / "search.jsonl"
    code, _, _ = run(
        capsys, "search", "--p", "3", "--m", "3", "--out", str(out_path), *extra
    )
    assert code == 0
    return out_path.read_text().splitlines()


def test_search_limit_0_gives_summary_only(capsys, tmp_path):
    lines = search_lines(capsys, tmp_path, "--limit", "0", "--stable")
    assert len(lines) == 1
    summary = json.loads(lines[0])["summary"]
    assert summary["pairs_scanned"] == 0
    assert summary["witnesses"] == 0


def test_search_full_f27_scan(capsys, tmp_path):
    lines = search_lines(capsys, tmp_path, "--stable")
    records = [json.loads(line) for line in lines]  # every line must parse
    summary = records[-1]["summary"]
    assert summary["pairs_scanned"] == 432
    assert summary["abs_sq_eq_p2"] + summary["abs_sq_ne_p2"] == 432
    witnesses = [r for r in records[:-1]]
    assert summary["witnesses"] == len(witnesses)
    assert witnesses, "the bundled reference pairs guarantee hits"
    pair_set = {(r["alpha"], r["beta"]) for r in witnesses}
    w = F27.w.index
    w2 = (F27.w**2).index
    assert (w, (F27.w**2 + 1).index) in pair_set
    assert ((2 * F27.w + 1).index, w2) in pair_set
    assert (w, w2) in pair_set
    for r in witnesses:
        assert r["dual_bent"] is False
        assert r["bent"] is True
        assert r["regularity"] == NON_WEAKLY_REGULAR
        assert "runtime_ms" not in r
    # lexicographic order of emission
    assert [(r["alpha"], r["beta"]) for r in witnesses] == sorted(
        (r["alpha"], r["beta"]) for r in witnesses
    )


def test_search_witnesses_reverify_under_classify(capsys, tmp_path):
    lines = search_lines(capsys, tmp_path, "--stable", "--limit", "200")
    records = [json.loads(line) for line in lines[:-1]]
    assert records
    for rec in records[:3]:
        ctx = make_field(rec["p"], rec["m"], tuple(rec["modulus"]))
        rep = classify(ndcor_function(NdCorSpec(ctx, rec["alpha"], rec["beta"])))
        assert rep.is_bent == rec["bent"]
        assert rep.regularity == rec["regularity"]
        assert rep.dual_is_bent == rec["dual_bent"]


def test_search_stable_is_byte_identical(capsys, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run(
            capsys, "search", "--p", "3", "--m", "3", "--limit", "150",
            "--stable", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_width_does_not_change_output(capsys, tmp_path):
    a = tmp_path / "w1.jsonl"
    b = tmp_path / "w2.jsonl"
    for path, width in ((a, "1"), (b, "2")):
        code, _, _ = run(
            capsys, "search", "--p", "3", "--m", "3", "--limit", "200",
            "--stable", "--width", width, "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_width_is_capped_by_cores(capsys, tmp_path, monkeypatch):
    """A fork pool starts all of its workers at the first submit, so a width
    beyond the cores never reaches the pool, and a scan too small to pay for
    a worker starts none; the output does not change."""
    recorded = []

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            future = concurrent.futures.Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outputs = []
    for width in ("1", "1000000"):
        path = tmp_path / f"w{width}.jsonl"
        code, _, _ = run(
            capsys, "search", "--p", "3", "--m", "5", "--modulus", "1,0,0,0,2,1",
            "--stable", "--width", width, "--out", str(path),
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert recorded == [2]
    assert outputs[0] == outputs[1]
    # F_81's 5,616 pairs cost less than one worker's start
    code, _, _ = run(
        capsys, "search", "--p", "3", "--m", "4", "--stable", "--width", "1000000",
        "--out", str(tmp_path / "f81.jsonl"),
    )
    assert code == 0
    assert recorded == [2]


def test_search_refuses_an_oversized_field_before_any_pair(capsys, tmp_path):
    """F_{17^3} has 22.6M pairs, but F on it would have 17^5 > 2^20 points: the
    refusal comes before any pair is listed and before --out is created."""
    path = tmp_path / "search.jsonl"
    argv = ("search", "--p", "17", "--m", "3", "--modulus", "1,0,3,1", "--out", str(path))
    for width in ("1", "2"):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--width", width)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", "error: domain size 17^5 exceeds the limit 2^20\n")
        assert not path.exists()
    # with no pair to evaluate there is nothing to refuse
    code, _, err = run(capsys, *argv, "--limit", "0", "--stable")
    assert (code, err) == (0, "")
    assert json.loads(path.read_text())["summary"]["pairs_scanned"] == 0


def test_search_memory_stays_flat(capsys, tmp_path):
    """Each alpha's lines are written as its chunk finishes, so no list of
    pairs, tasks or lines grows with the field."""
    (code, _, _), peak = traced_peak(lambda: run(
        capsys, "search", "--p", "3", "--m", "4", "--stable", "--width", "1",
        "--out", str(tmp_path / "search.jsonl"),
    ))
    assert code == 0
    assert peak < 1 << 20


def test_search_error_mid_scan_leaves_no_worker(capsys, tmp_path, monkeypatch):
    """A task that fails in a worker ends the scan with exit 2, and the pool
    is shut down before main returns.  The forked workers inherit the patch,
    which fails only outside this process, so the scan must have forked."""
    real = cli._pair_verdicts
    main_pid = os.getpid()

    def failing(ctx, pairs):
        if os.getpid() != main_pid and pairs[0][0] >= ctx.p + 40:
            raise ConstructionError("injected failure")
        return real(ctx, pairs)

    monkeypatch.setattr(cli, "_pair_verdicts", failing)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, _, err = run(
        capsys, "search", "--p", "3", "--m", "5", "--modulus", "1,0,0,0,2,1",
        "--limit", "20000", "--stable", "--width", "2",
        "--out", str(tmp_path / "search.jsonl"),
    )
    assert (code, err) == (2, "error: injected failure\n")
    assert multiprocessing.active_children() == []


def test_cli_import_leaves_out_the_process_pool():
    """classify, dual and serial search never pay for the pool's imports, and
    dual and search never load jsontext, which only the JSON reports use."""
    code = (
        "import sys, pbent.cli; print(sorted(set(sys.modules) & "
        "{'concurrent.futures.process', 'multiprocessing', 'pbent.jsontext'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_search_timing_field_present_without_stable(capsys, tmp_path):
    lines = search_lines(capsys, tmp_path, "--limit", "60")
    records = [json.loads(line) for line in lines]
    body = records[:-1]
    assert body
    assert all("runtime_ms" in r for r in body)


# sha256 of the whole --stable output of each scan, taken from the per-pair
# transform path (classify of every pair); the F_81 and F_125 digests are the
# ones the benchmark pins.
PINNED_SEARCHES = [
    pytest.param(
        ("--p", "3", "--m", "3", "--width", "1"),
        "dbe2ff39882e1d1002ef4e25c9101682f4974cc52d6dbd14f4456ffe99ba3a81",
        id="f27-width1",
    ),
    pytest.param(
        ("--p", "3", "--m", "3", "--width", "2"),
        "dbe2ff39882e1d1002ef4e25c9101682f4974cc52d6dbd14f4456ffe99ba3a81",
        id="f27-width2",
    ),
    pytest.param(
        ("--p", "3", "--m", "4", "--width", "2"),
        "e75f1f7b4c3a241c69f31d206a16d7ef90bd5977d4f9b756ec77475a41bf7360",
        id="f81-width2",
    ),
    pytest.param(
        ("--p", "5", "--m", "3", "--limit", "1200", "--width", "2"),
        "c25cd7ebe3b111dc332c2a3013f78d6972e2d9724f89decaf485e1c6a54f85c3",
        id="f125-limit1200",
    ),
    pytest.param(
        ("--p", "3", "--m", "5", "--modulus", "1,0,0,0,2,1", "--width", "2"),
        "13da55eff7f0389e3b0f438df81c961177f724d7350f47d412532ae03abf5f36",
        id="f243-width2",
    ),
    pytest.param(  # stops in the middle of an alpha's betas
        ("--p", "3", "--m", "4", "--limit", "1000", "--width", "1"),
        "a3c3a56f1c6fcd55ab6462ae927176026f68f47304678bbc45b55a080eccedc6",
        id="f81-limit1000",
    ),
    pytest.param(
        ("--p", "7", "--m", "3", "--modulus", "1,0,1,1", "--limit", "20000", "--width", "1"),
        "d52a71fc2c5fbece321b43c486d5838eaa0409c79ae8ed7d3399dcc3ce2ff093",
        id="f343-limit20000",
    ),
    pytest.param(
        ("--p", "5", "--m", "3", "--limit", "1234", "--width", "2"),
        "fc2396d9a49a68b798970eb5022cb6d694aff3f02f643d3c83d406c1c9e06044",
        id="f125-limit1234",
    ),
]


@pytest.mark.parametrize("args,digest", PINNED_SEARCHES)
def test_search_stable_output_matches_pinned_digest(capsys, tmp_path, args, digest):
    path = tmp_path / "search.jsonl"
    code, _, _ = run(capsys, "search", *args, "--stable", "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# ---- verify-paper ------------------------------------------------------------------------


_VERIFY_PAPER_ROWS = """\
PASS  pair(3,3) (w, w^2+1): |S|^2                        computed: 3
PASS  pair(3,3) (w, w^2+1): class                        computed: bent=True, non_weakly_regular, dual_bent=False
PASS  pair(3,3) (2w+1, w^2): |S|^2                       computed: 3
PASS  pair(3,3) (2w+1, w^2): class                       computed: bent=True, non_weakly_regular, dual_bent=False
FAIL  pair(3,4) (w, w^2): |S|^2                          computed: 3  expected: 13
PASS  pair(3,4) (w, w^2): class                          computed: bent=True, non_weakly_regular, dual_bent=False
FAIL  pair(3,4) (w, w^2): float(S)                       computed: +0.000000+1.732051i  expected: +1.000000-3.464102i
FAIL  pair(5,3) (w, w^2): S                              computed: 3 + 4e + 6e^2 + 2e^3  expected: -3 - 8e - 4e^2 - 4e^3
PASS  pair(5,3) (w, w^2): class                          computed: bent=True, non_weakly_regular, dual_bent=False
PASS  pair(5,3) (w, w^2): |S| != 5                       computed: 17 - 16e^2 - 16e^3
PASS  pair(3,3) (w, w^2): |S|^2                          computed: 9
PASS  pair(3,3) (w, w^2): dual not bent despite |S| = p  computed: bent=True, dual_bent=False
PASS  g2 variant 0                                       computed: bent=True, non_weakly_regular, dual_bent=False
PASS  g2 variant 1                                       computed: bent=True, non_weakly_regular, dual_bent=False
PASS  g2 variant 2                                       computed: bent=True, non_weakly_regular, dual_bent=False
PASS  g2 variant 3                                       computed: bent=True, non_weakly_regular, dual_bent=False
"""
_SEXTIC_ROWS = """\
PASS  g1                                                 computed: bent=True, non_weakly_regular, dual_bent=False
PASS  g3                                                 computed: bent=True, non_weakly_regular, dual_bent=False
18 checks: 15 passed, 3 failed, 0 skipped
"""
_SKIPPED_ROWS = """\
SKIP  g1                                                 computed: skipped  expected: needs --modulus-36
SKIP  g3                                                 computed: skipped  expected: needs --modulus-36
18 checks: 13 passed, 3 failed, 2 skipped
"""


def test_verify_paper_default_run(capsys):
    """Every row, its order and its text, the warning and the exit code: the
    three FAIL rows are reference values that exact arithmetic refutes, and
    g1, g3 need an explicit modulus."""
    assert run(capsys, "verify-paper") == (
        1,
        _VERIFY_PAPER_ROWS + _SKIPPED_ROWS,
        "warning: no --modulus-36 given, skipping the F_3^6 checks (g1, g3)\n",
    )


def test_verify_paper_fail_rows_show_computed_values(capsys):
    _, out, _ = run(capsys, "verify-paper")
    fail_34 = next(l for l in out.splitlines() if l.startswith("FAIL  pair(3,4) (w, w^2): |S|^2"))
    assert "computed: 3" in fail_34
    assert "expected: 13" in fail_34
    fail_53 = next(l for l in out.splitlines() if l.startswith("FAIL  pair(5,3) (w, w^2): S"))
    assert "computed: 3 + 4e + 6e^2 + 2e^3" in fail_53


def test_verify_paper_with_sextic_modulus(capsys):
    assert run(capsys, "verify-paper", "--modulus-36", MOD36) == (
        1, _VERIFY_PAPER_ROWS + _SEXTIC_ROWS, ""
    )


def test_verify_paper_float_row_compares_ring_elements(capsys, monkeypatch):
    """The float(S) row's reference 1 - 2*sqrt(3)*i is -1 - 4e in Z[e_3], and
    the row passes exactly when S equals it; the conjugate, with the same
    |S|^2 = 13, fails it."""
    target = -1 - 4 * root_power(3, 1)
    assert abs(target.to_complex() - complex(1, -2 * math.sqrt(3))) < 1e-12
    assert target.abs_sq() == 13
    condition_sum = cli.ndcor_condition_sum
    for planted, status in ((target, "PASS"), (3 + 4 * root_power(3, 1), "FAIL")):
        monkeypatch.setattr(
            cli, "ndcor_condition_sum",
            lambda spec, planted=planted: planted if spec.ctx.m == 4 else condition_sum(spec),
        )
        _, out, _ = run(capsys, "verify-paper")
        lines = out.splitlines()
        assert next(l for l in lines if "(w, w^2): |S|^2" in l).startswith("PASS  pair(3,4)")
        assert next(l for l in lines if "float(S)" in l).startswith(status)


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--p", "3", "--m", "3", "--expr", "Tr(x^2)"),
        ("spectrum", "--p", "3", "--m", "3", "--expr", "Tr(x^2)"),
        ("dual", "--p", "3", "--m", "3", "--expr", "Tr(x^2)"),
        ("construct", "ndcor", "--p", "3", "--m", "3", "--alpha", "w", "--beta", "w^2"),
        ("verify-paper",),
    ],
    ids=lambda argv: argv[1] if argv[0] == "construct" else argv[0],
)
def test_out_file_gets_the_bytes_of_stdout(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv)
    path = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(path)) == (code, "", err)
    assert path.read_bytes() == out.encode()


def _mm_table(rng) -> PFunction:
    """Maiorana-McFarland x . pi(y) + g(y) on F_3^3 x F_3^3, x the low digits."""
    digits = np.array(np.unravel_index(np.arange(27), (3, 3, 3), order="F")).T
    pi, g = rng.permutation(27), rng.integers(0, 3, 27)
    return PFunction(Domain.vec(3, 6), ((digits[pi] @ digits.T + g[:, None]) % 3).ravel())


# name -> (table, the dtype of the spectrum's |W|^2 keys, or None where the
# lexsort takes over): each key path, a bent table and a mixed domain
JSON_TABLES = {
    "mm": (_mm_table, np.uint32),
    "random_v3_8": (lambda rng: random_function(Domain.vec(3, 8), rng), np.uint32),
    "random_v3_12": (lambda rng: random_function(Domain.vec(3, 12), rng), np.uint32),
    "int64_keys_v5_4": (lambda rng: random_function(Domain.vec(5, 4), rng), np.int64),
    "mixed_f27v2": (
        lambda rng: random_function(Domain.field(F27).extend(VecPart(3, 2)), rng), np.uint32
    ),
    "large_prime_v23_2": (lambda rng: random_function(Domain.vec(23, 2), rng), None),
    "lexsort_v11_2": (lambda rng: random_function(Domain.vec(11, 2), rng), None),
    "one_digit_v101_1": (lambda rng: random_function(Domain.vec(101, 1), rng), None),
}


@pytest.mark.parametrize("table, key_dtype", JSON_TABLES.values(), ids=JSON_TABLES.keys())
def test_json_output_is_json_dumps_of_to_json(capsys, tmp_path, rng, table, key_dtype):
    """classify and spectrum print json.dumps(to_json(), sort_keys=True,
    indent=2) byte for byte, with the values and the histogram written in
    chunks from byte arrays, and --out gets the same bytes."""
    f = table(rng)
    W = walsh_fast(f)
    keyed = walsh_module._abs_sq_keys(W.rows, f.p)
    assert (None if keyed is None else keyed[0].dtype) == key_dtype
    path, out_path = tmp_path / "f.tt", tmp_path / "out.json"
    save_tt(f, path)
    for command, data in (("classify", classify(f).to_json()), ("spectrum", W.to_json())):
        code, out, err = run(capsys, command, "--tt", str(path))
        assert (code, err) == (0, "")
        assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert run(capsys, command, "--tt", str(path), "--out", str(out_path)) == (0, "", "")
        assert out_path.read_bytes() == out.encode()
        hist = data["abs_sq_histogram" if command == "spectrum" else "spectrum_histogram"]
        if len(hist) > 1:  # the text sorts keys as strings, not as coefficient rows
            assert list(hist) != sorted(hist)


def test_classify_output_memory_is_the_keys_and_a_slack(tmp_path, rng):
    """classify's output phase on a random 3^12 table (about 78k distinct
    |W|^2 values) holds the uint32 |W|^2 keys, N x 4 B, and at most 3.5 MiB
    besides: the run mask (N B); the distinct values' starts, counts and
    rows (32 B each); format_rows' byte rows and position per value; and
    one chunk of text.  With int64 keys sorted by np.unique, a str per key
    and the whole text, it peaked at 13.8 MiB."""
    report = classify(random_function(Domain.vec(3, 12), rng))
    out = tmp_path / "out.json"
    _, peak = traced_peak(lambda: cli._emit(cli._json_text(report.json_members()), str(out)))
    assert peak <= report.domain.size * 4 + (7 << 19)


def test_spectrum_memory_holds_no_list_of_values(capsys, tmp_path, rng):
    """spectrum --tt on a random 3^12 table holds the int8 table (0.53 MB)
    and its float32 spectrum (4.25 MB), and writes the 531,441 rows of
    values a chunk at a time: through values.tolist() and json.dumps'
    Python encoder the command peaked at 206 MiB, and with an int64 table
    at 13.0 MiB."""
    path = tmp_path / "f.tt"
    save_tt(random_function(Domain.vec(3, 12), rng), path)
    (code, _, err), peak = traced_peak(lambda: run(
        capsys, "spectrum", "--tt", str(path), "--out", str(tmp_path / "out.json")
    ))
    assert (code, err) == (0, "")
    assert peak <= 11 << 20
