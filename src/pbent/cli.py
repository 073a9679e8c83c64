"""Command-line interface: classify functions, compute duals and spectra,
run the constructions, search for non-dual-bent pairs, and check the bundled
reference values.

Every command is deterministic: identical configurations produce identical
output (search with --stable is byte-identical, since per-record timings are
omitted).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import deque
from collections.abc import Iterable, Iterator
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bent import ClassReport, DualExtractionError, classify, extract_dual
from .constructions import (
    ConstructionError,
    NdCorSpec,
    SdsSpec,
    _SPORADIC,
    _TASK_PAIRS,
    _pair_verdicts,
    agw_combine,
    cm_bent,
    cor1_family,
    coordinate_product,
    direct_sum,
    monomial_bent,
    ndcor_condition_sum,
    ndcor_function,
    pair_count,
    pair_lines,
    pair_slice,
    semi_direct_sum,
    sporadic,
)
from .cyclo import CycInt, root_power
from .field import BUILTIN_MODULI, FieldCtx, FieldError, make_field
from .pfunc import (
    Domain,
    DomainError,
    ExprError,
    PFunction,
    VecPart,
    dump_tt,
    from_expr,
    load_tt,
    parse_coefficient,
)
from .walsh import walsh_fast


class CLIError(Exception):
    """Configuration or input problem; message goes to stderr, exit code 2."""


def _parse_modulus(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise CLIError(f"bad modulus {text!r}: {exc}") from None


def _validate(ns: argparse.Namespace) -> None:
    """The flag checks argparse cannot express; parses the modulus flags in place."""
    # argparse turns an attached "--" (--expr=--) into an empty list
    for name, value in vars(ns).items():
        if [] in (value if name == "h" else [value]):  # --h appends one per use
            raise CLIError(f"--{name.replace('_', '-')} needs a value")
    if getattr(ns, "modulus_36", None) is not None:
        ns.modulus_36 = _parse_modulus(ns.modulus_36)
    ns.modulus = _parse_modulus(ns.modulus) if getattr(ns, "modulus", None) else None
    p, m = getattr(ns, "p", None), getattr(ns, "m", None)
    if getattr(ns, "width", 1) < 1:
        raise CLIError("--width must be at least 1")
    if getattr(ns, "limit", None) is not None and ns.limit < 0:
        raise CLIError("--limit must be nonnegative")
    if p is not None and (p < 3 or p % 2 == 0):
        raise CLIError("--p must be an odd prime")
    if m is not None and m < 1:
        raise CLIError("--m must be at least 1")
    if ns.modulus is not None:
        if m is None:
            raise CLIError("--modulus needs --m")
        if len(ns.modulus) != m + 1:
            raise CLIError(
                f"--modulus needs {m + 1} digits for m={m}, got {len(ns.modulus)}"
            )


def _field_from(ns: argparse.Namespace) -> FieldCtx:
    if ns.p is None or ns.m is None:
        raise CLIError("this command needs --p and --m")
    return make_field(ns.p, ns.m, ns.modulus)


def _load_function(ns: argparse.Namespace) -> PFunction:
    """One input function, from --tt or from --expr with field flags."""
    if ns.tt is not None and ns.expr is not None:
        raise CLIError("give either --tt or --expr, not both")
    if ns.tt is not None:
        return load_tt(ns.tt)
    if ns.expr is not None:
        return from_expr(_field_from(ns), ns.expr)
    raise CLIError("this command needs --tt FILE or --expr STRING")


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write a text, given in chunks, to stdout or to the file `out`,
    ending it with a newline if it lacks one."""
    with ExitStack() as stack:
        fh = sys.stdout if out is None else stack.enter_context(open(out, "w"))
        chunk = ""
        for chunk in chunks:
            fh.write(chunk)
        if not chunk.endswith("\n"):
            fh.write("\n")


def _json_text(obj: dict) -> Iterator[str]:
    from .jsontext import json_chunks  # loaded only by the commands that write JSON reports

    return json_chunks(obj)


# ---- simple report commands ----------------------------------------------------


def cmd_classify(ns: argparse.Namespace) -> int:
    report = classify(_load_function(ns))
    _emit(_json_text(report.json_members()), ns.out)
    return 0


def cmd_dual(ns: argparse.Namespace) -> int:
    """Write f*; whether f* is bent is left to `classify`."""
    try:
        dual, _ = extract_dual(walsh_fast(_load_function(ns)))
    except DualExtractionError as exc:
        sys.stderr.write(f"not bent (witness b={exc.witness}); no dual exists\n")
        return 1
    _emit([dump_tt(dual)], ns.out)
    return 0


def cmd_spectrum(ns: argparse.Namespace) -> int:
    f = _load_function(ns)
    _emit(_json_text(walsh_fast(f).json_members()), ns.out)
    return 0


# ---- construct -------------------------------------------------------------------


def cmd_construct(ns: argparse.Namespace) -> int:
    _emit([dump_tt(ns.build(ns))], ns.out)
    return 0


def _build_quadratic(ns: argparse.Namespace) -> PFunction:
    """monomial_bent or cm_bent, as the subcommand set ns.family."""
    ctx = _field_from(ns)
    return ns.family(ctx, parse_coefficient(ctx, ns.alpha), ns.k)


def _build_directsum(ns: argparse.Namespace) -> PFunction:
    f, g = (load_tt(path) for path in ns.inputs)
    return direct_sum(f, g)


def _build_sds(ns: argparse.Namespace) -> PFunction:
    spec = SdsSpec(
        f=load_tt(ns.f), g=load_tt(ns.g), h=[load_tt(path) for path in ns.h]
    )
    return semi_direct_sum(spec)


def _build_cor1(ns: argparse.Namespace) -> PFunction:
    ctx = _field_from(ns)
    alphas = [parse_coefficient(ctx, tok) for tok in _split_list(ns.alphas)]
    g = load_tt(ns.g) if ns.g else _default_outer(ctx.p, len(alphas) - 1)
    result = cor1_family(ctx, ns.kind, ns.k, alphas, g)
    if not result.both_characters:
        sys.stderr.write(
            "note: coefficient sweep stays in one character class; "
            "the sum is weakly regular\n"
        )
    return result.function


def _build_ndcor(ns: argparse.Namespace) -> PFunction:
    ctx = _field_from(ns)
    spec = NdCorSpec(
        ctx, parse_coefficient(ctx, ns.alpha), parse_coefficient(ctx, ns.beta)
    )
    return ndcor_function(spec)


def _build_agw(ns: argparse.Namespace) -> PFunction:
    return agw_combine([load_tt(path).as_vec() for path in ns.inputs])


def _build_sporadic(ns: argparse.Namespace) -> PFunction:
    """The named example on the field of the flags: p defaults to 3, m to the
    example's degree; sporadic refuses a field that does not fit."""
    degree = _SPORADIC[ns.name][0]
    p, m = ns.p or 3, ns.m or degree  # _validate refuses 0 for both
    if ns.modulus is None and (p, m) == (3, degree) and (p, m) not in BUILTIN_MODULI:
        raise CLIError(f"{ns.name} lives on F_3^{m}; give --m {m} --modulus DIGITS")
    return sporadic(ns.name, make_field(p, m, ns.modulus), ns.variant)


def _split_list(text: str) -> list[str]:
    toks = [tok.strip() for tok in text.split(";")]
    if any(not tok for tok in toks):
        raise CLIError("empty entry in coefficient list")
    return toks


def _default_outer(p: int, n: int) -> PFunction:
    """A standard bent function on F_p^n for n in {1, 2}.  With n < 1 the
    coefficient list is too short, which cor1_family reports before it reads g."""
    if n > 2:
        raise CLIError("for more than two coordinate maps, supply --g explicitly")
    if n == 2:
        return coordinate_product(p)
    idx = np.arange(p, dtype=np.int64)
    return PFunction(Domain.vec(p, 1), (idx * idx) % p)


# ---- search ----------------------------------------------------------------------


_worker_field = lru_cache(maxsize=4)(FieldCtx)  # each worker builds a field once

# Pairs whose serial evaluation costs about as much as starting and joining
# one worker, so a scan gets one worker per this many pairs (README, "search").
_PAIRS_PER_WORKER = 1 << 14


def _search_chunk(task) -> tuple[str, int, int, int]:
    """Pairs start..stop of the scan: the witness lines as text, the pairs
    scanned, how many have |S|^2 = p^2, and the witnesses.  Without --stable
    each record's runtime_ms is the task's time per pair."""
    p, m, modulus, primitive, start, stop, stable = task
    ctx = _worker_field(p, m, modulus, primitive)
    t0 = time.perf_counter()
    pairs = pair_slice(ctx, start, stop)
    verdicts = _pair_verdicts(ctx, pairs)
    hits = np.flatnonzero(~verdicts.dual_bent)
    per_pair = None if stable else round((time.perf_counter() - t0) * 1000.0 / len(pairs), 3)
    text = pair_lines(ctx, pairs[hits], verdicts.take(hits), per_pair)
    s2 = verdicts.abs_sq_S
    eq_p2 = int(np.count_nonzero((s2[:, 0] == p * p) & ~s2[:, 1:].any(axis=1)))
    return text, len(pairs), eq_p2, len(hits)


def _submitted(pool, tasks, ahead: int):
    """_search_chunk over tasks in the pool, in order, submitting at most
    `ahead` tasks before their results are taken: pool.map would submit every
    task at once and hold one future per task."""
    pending = deque()
    for task in tasks:
        pending.append(pool.submit(_search_chunk, task))
        if len(pending) == ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def cmd_search(ns: argparse.Namespace) -> int:
    ctx = _field_from(ns)
    if ctx.m < 3:
        raise CLIError("the pair search needs m >= 3 for {1, alpha, beta} to fit")
    total = pair_count(ctx)
    if ns.limit is not None:
        total = min(total, ns.limit)
    if total:  # F's own domain; a field too large for it is refused up front
        Domain.field(ctx).extend(VecPart(ctx.p, 2))
    tasks = (
        (ctx.p, ctx.m, ctx.modulus, ctx.primitive_index, start,
         min(start + _TASK_PAIRS, total), ns.stable)
        for start in range(0, total, _TASK_PAIRS)
    )
    scanned = eq_p2 = witnesses = 0
    # a fork pool starts all of its workers at the first submit
    workers = min(ns.width, os.cpu_count() or 1, -(-total // _PAIRS_PER_WORKER))
    with ExitStack() as stack:
        out = sys.stdout if ns.out is None else stack.enter_context(open(ns.out, "w"))
        if workers <= 1:
            chunks = map(_search_chunk, tasks)
        else:
            from concurrent.futures import ProcessPoolExecutor  # a serial scan skips the import

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            chunks = _submitted(pool, tasks, 4 * workers)
        for text, n, n_eq, n_hits in chunks:
            out.write(text)
            scanned += n
            eq_p2 += n_eq
            witnesses += n_hits
        summary = {"p": ctx.p, "m": ctx.m, "modulus": list(ctx.modulus), "pairs_scanned": scanned,
                   "abs_sq_eq_p2": eq_p2, "abs_sq_ne_p2": scanned - eq_p2, "witnesses": witnesses}
        out.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return 0


# ---- verify-paper ------------------------------------------------------------------


@dataclass
class _Row:
    label: str
    ok: bool | None  # None = skipped
    computed: str
    expected: str


def _claim_row(label: str, rep: ClassReport) -> _Row:
    return _Row(
        label,
        rep.has_non_bent_dual(),
        f"bent={rep.is_bent}, {rep.regularity}, dual_bent={rep.dual_is_bent}",
        "bent, non_weakly_regular, dual_bent=False",
    )


def _pair_rows(
    rows: list[_Row], label: str, ctx, alpha, beta, expected_abs_sq: int | None
) -> tuple[CycInt, ClassReport]:
    """The condition sum S of one reference pair and the classification of its
    F; appends the |S|^2 row when a reference |S|^2 is given."""
    spec = NdCorSpec(ctx, alpha, beta)
    S = ndcor_condition_sum(spec)
    if expected_abs_sq is not None:
        s2 = S.abs_sq()
        got = s2.as_int() if s2.is_rational else str(s2)
        rows.append(
            _Row(f"{label} |S|^2", got == expected_abs_sq, str(got), str(expected_abs_sq))
        )
    return S, classify(ndcor_function(spec))


def cmd_verify_paper(ns: argparse.Namespace) -> int:
    rows: list[_Row] = []
    k33 = make_field(3, 3)
    k34 = make_field(3, 4)
    k53 = make_field(5, 3)
    w3, w4, w5 = k33.w, k34.w, k53.w

    for label, alpha, beta in (
        ("pair(3,3) (w, w^2+1):", w3, w3 * w3 + 1),
        ("pair(3,3) (2w+1, w^2):", 2 * w3 + 1, w3 * w3),
    ):
        _, rep = _pair_rows(rows, label, k33, alpha, beta, 3)
        rows.append(_claim_row(f"{label} class", rep))

    S34, rep = _pair_rows(rows, "pair(3,4) (w, w^2):", k34, w4, w4 * w4, 13)
    rows.append(_claim_row("pair(3,4) (w, w^2): class", rep))
    # the bundled 1 - 2*sqrt(3)*i, exactly: i*sqrt(3) = 1 + 2e in Z[e_3]
    target = -1 - 4 * root_power(3, 1)
    z, t = S34.to_complex(), target.to_complex()
    rows.append(
        _Row(
            "pair(3,4) (w, w^2): float(S)",
            S34 == target,
            f"{z.real:+.6f}{z.imag:+.6f}i",
            f"{t.real:+.6f}{t.imag:+.6f}i",
        )
    )

    expected5 = 4 * root_power(5, 4) - 4 * root_power(5, 1) + CycInt.one(5)
    S53, rep = _pair_rows(rows, "pair(5,3) (w, w^2):", k53, w5, w5 * w5, None)
    rows.append(_Row("pair(5,3) (w, w^2): S", S53 == expected5, str(S53), str(expected5)))
    rows.append(_claim_row("pair(5,3) (w, w^2): class", rep))
    s2 = S53.abs_sq()
    ne_25 = not (s2.is_rational and s2.as_int() == 25)
    rows.append(_Row("pair(5,3) (w, w^2): |S| != 5", ne_25, str(s2), "anything but 25"))

    _, rep = _pair_rows(rows, "pair(3,3) (w, w^2):", k33, w3, w3 * w3, 9)
    rows.append(
        _Row(
            "pair(3,3) (w, w^2): dual not bent despite |S| = p",
            rep.is_bent and rep.dual_is_bent is False,
            f"bent={rep.is_bent}, dual_bent={rep.dual_is_bent}",
            "bent=True, dual_bent=False",
        )
    )

    for variant in range(4):
        rows.append(_claim_row(f"g2 variant {variant}", classify(sporadic("g2", k34, variant))))

    if ns.modulus_36 is None:
        sys.stderr.write(
            "warning: no --modulus-36 given, skipping the F_3^6 checks (g1, g3)\n"
        )
        rows.append(_Row("g1", None, "skipped", "needs --modulus-36"))
        rows.append(_Row("g3", None, "skipped", "needs --modulus-36"))
    else:
        ctx36 = make_field(3, 6, ns.modulus_36)
        for name in ("g1", "g3"):
            rows.append(_claim_row(name, classify(sporadic(name, ctx36))))

    width = max(len(r.label) for r in rows)
    lines = []
    failed = 0
    for r in rows:
        if r.ok is None:
            status = "SKIP"
        elif r.ok:
            status = "PASS"
        else:
            status = "FAIL"
            failed += 1
        lines.append(
            f"{status}  {r.label.ljust(width)}  computed: {r.computed}"
            + ("" if r.ok else f"  expected: {r.expected}")
        )
    lines.append(
        f"{len(rows)} checks: "
        f"{sum(1 for r in rows if r.ok)} passed, {failed} failed, "
        f"{sum(1 for r in rows if r.ok is None)} skipped"
    )
    _emit(["\n".join(lines) + "\n"], ns.out)
    return 1 if failed else 0


# ---- argument wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbent",
        description="Exact analysis of p-ary bent functions in odd characteristic.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add_field_flags(sp, need_input: bool) -> None:
        sp.add_argument("--p", type=int, help="characteristic (odd prime)")
        sp.add_argument("--m", type=int, help="extension degree")
        sp.add_argument(
            "--modulus",
            type=str,
            help="comma-separated coefficients, constant first (e.g. 2,0,1,1)",
        )
        if need_input:
            sp.add_argument("--tt", type=str, help="truth-table file to read")
            sp.add_argument(
                "--expr", type=str, help="trace expression, e.g. 'Tr(w x^2) + 1'"
            )
        sp.add_argument("--out", type=str, help="write output here instead of stdout")

    for name, blurb, func in (
        ("classify", "full classification report as JSON", cmd_classify),
        ("dual", "truth table of the dual of a bent function", cmd_dual),
        ("spectrum", "exact Walsh spectrum as JSON", cmd_spectrum),
    ):
        sp = subs.add_parser(name, help=blurb)
        add_field_flags(sp, need_input=True)
        sp.set_defaults(func=func)

    con = subs.add_parser("construct", help="build one of the known constructions")
    con.set_defaults(func=cmd_construct)
    consubs = con.add_subparsers(dest="sub", required=True)

    for name, blurb, family, k in (
        ("monomial", "Tr(alpha x^(p^k+1))", monomial_bent, 0),
        ("cm", "ternary Tr(alpha x^((3^k+1)/2))", cm_bent, 1),
    ):
        sp = consubs.add_parser(name, help=blurb)
        add_field_flags(sp, need_input=False)
        sp.add_argument("--alpha", type=str, required=True)
        sp.add_argument("--k", type=int, default=k)
        sp.set_defaults(build=_build_quadratic, family=family)

    sp = consubs.add_parser("directsum", help="f(x) + g(y) from two truth tables")
    sp.add_argument("inputs", nargs=2, metavar="TT")
    sp.add_argument("--out", type=str)
    sp.set_defaults(build=_build_directsum)

    sp = consubs.add_parser("sds", help="f(x) + g(y + h(x)) from truth tables")
    sp.add_argument("--f", type=str, required=True)
    sp.add_argument("--g", type=str, required=True)
    sp.add_argument("--h", action="append", default=[], metavar="TT")
    sp.add_argument("--out", type=str)
    sp.set_defaults(build=_build_sds)

    sp = consubs.add_parser(
        "cor1", help="quadratic-family sum with independent coefficients"
    )
    add_field_flags(sp, need_input=False)
    sp.add_argument("--kind", choices=("monomial", "cm"), default="monomial")
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument(
        "--alphas",
        type=str,
        required=True,
        help="semicolon-separated coefficients, first is the base term",
    )
    sp.add_argument("--g", type=str, help="truth table of the outer bent function")
    sp.set_defaults(build=_build_cor1)

    sp = consubs.add_parser("ndcor", help="Tr(x^2) + (y1+Tr(a x^2))(y2+Tr(b x^2))")
    add_field_flags(sp, need_input=False)
    sp.add_argument("--alpha", type=str, required=True)
    sp.add_argument("--beta", type=str, required=True)
    sp.set_defaults(build=_build_ndcor)

    sp = consubs.add_parser("agw", help="f_y(x) + s*y from p truth tables")
    sp.add_argument("inputs", nargs="+", metavar="TT")
    sp.add_argument("--out", type=str)
    sp.set_defaults(build=_build_agw)

    sp = consubs.add_parser("sporadic", help="bundled ternary examples g1, g2, g3")
    add_field_flags(sp, need_input=False)
    sp.add_argument("--name", choices=("g1", "g2", "g3"), required=True)
    sp.add_argument("--variant", type=int, help="g2 coefficient choice, 0..3")
    sp.set_defaults(build=_build_sporadic)

    sp = subs.add_parser(
        "search", help="scan (alpha, beta) pairs for non-dual-bent functions"
    )
    add_field_flags(sp, need_input=False)
    sp.add_argument("--limit", type=int, help="stop after this many pairs")
    sp.add_argument("--width", type=int, default=1, help="worker processes")
    sp.add_argument(
        "--stable",
        action="store_true",
        help="omit per-record timings so identical runs are byte-identical",
    )
    sp.set_defaults(func=cmd_search)

    sp = subs.add_parser(
        "verify-paper", help="check the library against the bundled reference values"
    )
    sp.add_argument(
        "--modulus-36",
        type=str,
        help="irreducible modulus for F_3^6 (comma-separated digits), enables g1/g3",
    )
    sp.add_argument("--out", type=str)
    sp.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        _validate(ns)
        return ns.func(ns)
    except (CLIError, ConstructionError, DomainError, ExprError, FieldError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
