"""Functions from a finite point domain into F_p, plus the expression DSL.

A Domain is an ordered product of components, each either a full extension
field F_{p^m} (inner product Tr(b*x)) or a plain coordinate space F_p^n
(dot product).  Points are indexed in mixed radix with the first component
least significant; inside a component, digit 0 is least significant.  A
PFunction is just its truth table in that point order.
"""
from __future__ import annotations

import re
from typing import NoReturn

import numpy as np

from .field import (
    FieldCtx,
    FieldElement,
    LinearMaps,
    digit_table,
    exceeds_size_limit,
    is_odd_prime,
    outer_sum,
)


class DomainError(ValueError):
    pass


class FieldPart:
    """Domain component backed by a full field; pairing is Tr(b*x), whose
    Gram block is the trace form's."""

    def __init__(self, ctx: FieldCtx) -> None:
        self.ctx = ctx
        self.p = ctx.p
        self.dim = ctx.m
        self.size = ctx.q
        self.gram = ctx.gram

    def _key(self):
        return ("field", self.ctx._key())

    def describe(self) -> dict:
        return {
            "kind": "field",
            "m": self.ctx.m,
            "modulus": list(self.ctx.modulus),
            "primitive": self.ctx.primitive_index,
        }

    def __repr__(self) -> str:
        return f"FieldPart(F_{self.p}^{self.dim})"


class VecPart:
    """Domain component F_p^n with the dot-product pairing, whose Gram block
    is the identity."""

    def __init__(self, p: int, n: int) -> None:
        if n < 1:
            raise DomainError(f"vector component needs dimension >= 1, got {n}")
        if exceeds_size_limit(p, n):
            raise DomainError(f"domain size {p}^{n} exceeds the limit 2^20")
        self.p = p
        self.dim = n
        self.size = p**n
        self.gram = np.eye(n, dtype=np.int64)

    def _key(self):
        return ("vec", self.p, self.dim)

    def describe(self) -> dict:
        return {"kind": "vec", "n": self.dim}

    def __repr__(self) -> str:
        return f"VecPart(F_{self.p}^{self.dim})"


class Domain:
    def __init__(self, components) -> None:
        comps = tuple(components)
        if not comps:
            raise DomainError("a domain needs at least one component")
        p = comps[0].p
        if any(c.p != p for c in comps):
            raise DomainError("all components must share the characteristic")
        self.p = p
        self.components = comps
        self.n_total = sum(c.dim for c in comps)
        if exceeds_size_limit(p, self.n_total):
            raise DomainError(
                f"domain size {p}^{self.n_total} exceeds the limit 2^20"
            )
        self.size = p**self.n_total
        self._cache: dict[str, object] = {}

    # ---- constructors -----------------------------------------------------

    @classmethod
    def field(cls, ctx: FieldCtx) -> "Domain":
        return cls([FieldPart(ctx)])

    @classmethod
    def vec(cls, p: int, n: int) -> "Domain":
        return cls([VecPart(p, n)])

    def extend(self, *parts) -> "Domain":
        return Domain(self.components + tuple(parts))

    # ---- identity ----------------------------------------------------------

    def _key(self):
        return tuple(c._key() for c in self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, Domain) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Domain({', '.join(repr(c) for c in self.components)})"

    def describe(self) -> dict:
        return {
            "p": self.p,
            "n_total": self.n_total,
            "components": [c.describe() for c in self.components],
        }

    # ---- digit and component views ----------------------------------------

    def digits_matrix(self) -> np.ndarray:
        """All point indices decomposed into base-p digits, shape (size, n_total)."""
        if "digits" not in self._cache:
            self._cache["digits"] = digit_table(self.p, self.n_total)
        return self._cache["digits"]  # type: ignore[return-value]

    def negation_perm(self) -> np.ndarray:
        """x -> -x: digit j of the image is -d_j mod p."""
        if "negperm" not in self._cache:
            neg = -np.arange(self.p, dtype=np.int64) % self.p
            self._cache["negperm"] = outer_sum([neg * self.p**j for j in range(self.n_total)])
        return self._cache["negperm"]  # type: ignore[return-value]

    # ---- the bilinear pairing ----------------------------------------------

    def inner_product(self, b: int, x: int) -> int:
        """<b, x>: trace of the product on field components, dot product on vectors."""
        total = 0
        p = self.p
        for c in self.components:
            b, bi = divmod(b, c.size)
            x, xi = divmod(x, c.size)
            if isinstance(c, FieldPart):
                total += c.ctx.trace_idx(c.ctx.mul_idx(bi, xi))
            else:
                for _ in range(c.dim):
                    total += (bi % p) * (xi % p)
                    bi //= p
                    xi //= p
        return total % p

    def gram(self) -> np.ndarray:
        """Matrix C of the pairing on digit vectors: <b, x> = (C b) . x mod p."""
        if "gram" not in self._cache:
            n = self.n_total
            C = np.zeros((n, n), dtype=np.int64)
            pos = 0
            for c in self.components:
                C[pos : pos + c.dim, pos : pos + c.dim] = c.gram
                pos += c.dim
            self._cache["gram"] = C
        return self._cache["gram"]  # type: ignore[return-value]

    def walsh_perm(self) -> np.ndarray:
        """Index permutation b -> index(C * digits(b)) for the Gram matrix C,
        so <b, x> = digits(perm[b]) . digits(x); int32, built on first use
        and read-only.

        C is block diagonal, one block per component, so each component's
        permutation is the int32 `LinearMaps` table of its own block, scaled
        in mixed radix by the points of the components before it.
        """
        if "wperm" not in self._cache:
            perm = np.zeros(1, dtype=np.int32)
            for c in self.components:
                block = LinearMaps(self.p, c.dim).table(c.gram)
                block *= perm.size
                perm = np.add.outer(block, perm).reshape(-1)
            hit = np.zeros(self.size, dtype=bool)
            hit[perm] = True
            if not hit.all():
                raise DomainError("degenerate pairing (internal error)")
            perm.flags.writeable = False
            self._cache["wperm"] = perm
        return self._cache["wperm"]  # type: ignore[return-value]


class PFunction:
    """A function into F_p given by its truth table over a Domain."""

    def __init__(self, domain: Domain, table) -> None:
        arr = np.asarray(table, dtype=np.int64)
        if arr.shape != (domain.size,):
            raise DomainError(
                f"table length {arr.shape} does not match domain size {domain.size}"
            )
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= domain.p:
            arr = arr % domain.p
        self.domain = domain
        self.table = arr

    @property
    def p(self) -> int:
        return self.domain.p

    def __call__(self, i: int) -> int:
        return int(self.table[i])

    def __add__(self, other: "PFunction") -> "PFunction":
        if not isinstance(other, PFunction):
            return NotImplemented
        if self.domain != other.domain:
            raise DomainError("cannot add functions on different domains")
        return PFunction(self.domain, (self.table + other.table) % self.p)

    def __neg__(self) -> "PFunction":
        return PFunction(self.domain, (-self.table) % self.p)

    def __sub__(self, other: "PFunction") -> "PFunction":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PFunction):
            return NotImplemented
        return self.domain == other.domain and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        return hash((self.domain, self.table.tobytes()))

    def as_vec(self) -> "PFunction":
        """The same table viewed over plain coordinates F_p^{n_total}."""
        return PFunction(Domain.vec(self.p, self.domain.n_total), self.table)

    def __repr__(self) -> str:
        return f"PFunction({self.domain!r}, {self.domain.size} points)"


def zero_function(domain: Domain) -> PFunction:
    return PFunction(domain, np.zeros(domain.size, dtype=np.int64))


def random_function(domain: Domain, rng: np.random.Generator) -> PFunction:
    return PFunction(domain, rng.integers(0, domain.p, size=domain.size))


# ---- expression DSL ---------------------------------------------------------
#
# expr     := term ('+' term)*
# term     := uint '*' trcall | trcall | uint
# trcall   := 'Tr' '(' [coef] xpart ')'
# xpart    := 'x' ['^' uint]
# coef     := cterm (('+'|'-') cterm)*
# cterm    := ['-'] (uint ['*'] [factor] | factor)
# factor   := ('g' | 'w') ['^' uint] | '(' coef ')'
#
# 'g' is the context's primitive element, 'w' the modulus root.  Whitespace is
# ignored everywhere; integer literals reduce mod p.  Parentheses nest at most
# _MAX_NESTING deep: each level takes three frames of the recursive descent,
# so deeper input would reach Python's recursion limit.

class ExprError(ValueError):
    pass


_TOKEN_RE = re.compile(r"(\d+)|(Tr|[gwx+\-*^()])|\S")
_MAX_NESTING = 100


class _Parser:
    """Recursive descent with a method per grammar rule, where trcall reads
    xpart itself, and the shared parts uint ['*'] and ['^' uint].  Each term
    is added into the table as it is parsed.

    A token is (kind, value, position): kind is 'uint' for a digit run, the
    symbol itself otherwise, None for a stray character and 'end' for the
    end of input, which sits at position len(src).
    """

    def __init__(self, ctx: FieldCtx, src: str) -> None:
        self.ctx = ctx
        self.tokens = [
            ("uint", int(mo[1]), mo.start()) if mo[1] else (mo[2], mo[0], mo.start())
            for mo in _TOKEN_RE.finditer(src)
        ]
        self.tokens.append(("end", "", len(src)))
        # the first stray character fails before any parsing
        for self.pos, (kind, value, _) in enumerate(self.tokens):
            if kind is None:
                self._fail(f"unexpected {value!r}")
        self.pos = 0
        self.depth = 0

    def _fail(self, msg: str) -> NoReturn:
        raise ExprError(f"parse error at position {self.tokens[self.pos][2]}: {msg}")

    def _at(self, *kinds) -> bool:
        return self.tokens[self.pos][0] in kinds

    def _accept(self, *kinds):
        """The next token if its kind is one of `kinds`, consumed; else None."""
        if not self._at(*kinds):
            return None
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _expect(self, kind: str, msg: str):
        tok = self._accept(kind)
        if tok is None:
            self._fail("unexpected end of input" if self._at("end") else msg)
        return tok

    def expr(self) -> np.ndarray:
        table = np.zeros(self.ctx.q, dtype=np.int64)
        table += self._term()
        while not self._at("end"):
            self._expect("+", "expected '+' between terms")
            table += self._term()
        table %= self.ctx.p
        return table

    def _term(self):
        """The term's values: a constant, or a scaled trace table."""
        if self._at("end"):
            self._fail("missing term")
        scale, star = self._scalar()
        if scale is not None and not star:
            return scale
        if scale is None and not self._at("Tr"):
            self._fail("expected a term")
        coef, expo = self._trcall()
        term = self.ctx.trace_term(coef.index, expo)
        # in int64: scale * Tr(...) < p^2 passes int32 for p > 46341
        return term if scale is None else np.multiply(term, scale, dtype=np.int64)

    def _scalar(self) -> tuple[int | None, bool]:
        """uint ['*']: the literal mod p, or None, and whether a '*' followed."""
        tok = self._accept("uint")
        if tok is None:
            return None, False
        return tok[1] % self.ctx.p, self._accept("*") is not None

    def _trcall(self) -> tuple[FieldElement, int]:
        self._expect("Tr", "expected 'Tr'")
        self._expect("(", "expected '('")
        coef = self.ctx.one if self._at("x") else self._coef()
        if self._accept("x") is None:
            self._fail("expected 'x' after the coefficient")
        expo = self._exponent()
        self._expect(")", "expected ')'")
        return coef, expo

    def _exponent(self) -> int:
        """['^' uint], 1 when absent."""
        if self._accept("^") is None:
            return 1
        return self._expect("uint", "expected an exponent")[1]

    def _coef(self) -> FieldElement:
        total = self._cterm()
        while (op := self._accept("+", "-")) is not None:
            total = total + self._cterm() if op[0] == "+" else total - self._cterm()
        return total

    def _cterm(self) -> FieldElement:
        negate = self._accept("-") is not None
        scale, _ = self._scalar()
        if self._at("g", "w", "("):
            value = self._factor()
        elif scale is None:
            self._fail("expected a coefficient")
        else:
            value = self.ctx.one
        if scale is not None:
            value = scale * value
        return -value if negate else value

    def _factor(self) -> FieldElement:
        if self._at("("):
            if self.depth == _MAX_NESTING:
                self._fail(f"parentheses nested deeper than {_MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            inner = self._coef()
            self._expect(")", "expected ')'")
            self.depth -= 1
            return inner
        base = self.ctx.g if self._accept("g", "w")[0] == "g" else self.ctx.w
        return base ** self._exponent()


def parse_coefficient(ctx: FieldCtx, src: str) -> FieldElement:
    """Parse a standalone coefficient expression like 'g^7', 'w^2+1' or '2'."""
    parser = _Parser(ctx, src)
    value = parser._coef()
    if not parser._at("end"):
        parser._fail("trailing input")
    return value


def from_expr(ctx: FieldCtx, src: str) -> PFunction:
    """Build a PFunction on the field domain from a trace-polynomial expression."""
    return PFunction(Domain.field(ctx), _Parser(ctx, src).expr())


# ---- truth-table files -------------------------------------------------------
#
# Format: optional '#' header lines (one per component for field-bearing
# domains), then a line 'p n_total', then p^n_total whitespace-separated
# digits in point-index order.  The writer puts 32 digits on a row, each
# followed by one space, or by a newline at the end of a row and of the table.
# Both directions work on whole byte arrays.

def digit_cells(m: np.ndarray) -> np.ndarray:
    """The decimal digits of every nonnegative int in m as ASCII bytes, one
    uint8 row each, right-aligned after NUL padding."""
    width = len(str(int(m.max(initial=0))))
    cells = np.zeros((len(m), width), dtype=np.uint8)
    q = m.astype(np.uint32 if width < 10 else np.uint64)  # uint32 divides 3x as fast
    for i in range(width):  # the digit of 10^i, or NUL above the leading one
        col = cells[:, -1 - i]
        np.add(q % 10, 48, out=col, casting="unsafe")
        if i:
            col[q == 0] = 0
        q //= 10
    return cells


def ascii_text(cells: np.ndarray) -> str:
    """The bytes of a uint8 array in order, NULs dropped, as a str."""
    flat = cells.reshape(-1)
    return flat[flat != 0].tobytes().decode("ascii")


def dump_tt(f: PFunction) -> str:
    """Render a function in the truth-table file format."""
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
    tokens = digit_cells(np.arange(dom.p))  # row r: the decimal digits of r
    width = tokens.shape[1]
    cells = np.empty((dom.size, width + 1), dtype=np.uint8)
    cells[:, :width] = tokens[f.table]
    cells[:, width] = ord(" ")
    cells[31::32, width] = ord("\n")
    cells[-1, width] = ord("\n")
    return "\n".join(lines) + "\n" + ascii_text(cells)


def save_tt(f: PFunction, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_tt(f))


_FIELD_HDR = re.compile(
    r"#\s*field\s+m=(\d+)\s+modulus=(\d+(?:,\d+)*)(?:\s+primitive=(\d+))?\s*$"
)
_VEC_HDR = re.compile(r"#\s*vec\s+n=(\d+)\s*$")


# Bytes of table text parsed at once.  A block's per-token int64 temporaries
# (token edges, lengths, gathered digits: about 40 B a token) stay near 1 MiB
# whatever the table's size.
_TT_BLOCK = 1 << 16
_SPACE = re.compile(rb"[\t-\r\x1c- ]")  # the ASCII whitespace of str.split()


def _block_digits(data: bytes, start: int, stop: int, p: int, out: np.ndarray) -> int:
    """Parse the tokens of data[start:stop] into out; return their count.

    A run of at most 18 ASCII digits is below 10^18 < 2^63, so it is read
    base 10 in int64 without wrapping, one array pass per digit position.
    Any other token (a sign, '_', a non-ASCII digit, a longer run or junk)
    goes through int() alone, which raises int()'s own ValueError.  Its value
    is stored as -1 when it lies outside 0..p-1, so the caller's range check
    refuses it however large it is.
    """
    buf = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
    space = (buf == 32) | ((buf >= 9) & (buf <= 13)) | ((buf >= 28) & (buf <= 31))
    edges = np.flatnonzero(np.diff(~space, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2]
    lens = ends - starts
    via_int = lens > 18
    not_digit = np.flatnonzero(~space & ((buf < 48) | (buf > 57)))
    via_int[np.searchsorted(starts, not_digit, "right") - 1] = True
    vals = out[: starts.size]
    vals[:] = 0
    for k in range(int(lens[~via_int].max(initial=0))):
        live = ~via_int & (lens > k)
        vals[live] = vals[live] * 10 + buf[starts[live] + k] - 48
    for i in np.flatnonzero(via_int):
        v = int(data[start + starts[i] : start + ends[i]].decode())
        vals[i] = v if 0 <= v < p else -1
    return starts.size


def _table_digits(data: bytes, p: int) -> np.ndarray:
    """The whitespace-separated integers of the ASCII or UTF-8 text `data`,
    each as int() reads it, parsed in blocks of about _TT_BLOCK bytes that
    end at whitespace, so that no token is cut."""
    # a token and the whitespace after it take at least 2 bytes
    out = np.empty((len(data) + 1) // 2, dtype=np.int64)
    count = start = 0
    while start < len(data):
        cut = _SPACE.search(data, start + _TT_BLOCK)
        stop = cut.start() if cut else len(data)
        count += _block_digits(data, start, stop, p, out[count:])
        start = stop
    return out if count == out.size else out[:count].copy()


def _read_tt(path) -> tuple[list[str], str, bytes]:
    """The header lines, the first data line and the rest of a table file;
    the rest comes as bytes, non-ASCII text rejoined with single spaces so
    that its tokens are those of str.split()."""
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not a text file ({exc.reason})") from None
    # A header is a line whose first non-blank character is '#'.
    parts = re.split(r"\n[^\S\n]*(#.*)", "\n" + text)
    headers = [hdr.rstrip() for hdr in parts[1::2]]
    body = "\n".join(parts[::2]).lstrip()
    if not body:
        raise DomainError(f"{path}: no data lines")
    first, _, rest = body.partition("\n")
    return headers, first, (rest if rest.isascii() else " ".join(rest.split())).encode()


def load_tt(path) -> PFunction:
    headers, first, rest = _read_tt(path)
    first = first.split()
    if len(first) != 2:
        raise DomainError(f"{path}: first data line must be 'p n_total'")
    try:
        p, n_total = int(first[0]), int(first[1])
        digits = _table_digits(rest, p)
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
                m = int(mo.group(1))
                modulus = [int(d) for d in mo.group(2).split(",")]
                prim = int(mo.group(3)) if mo.group(3) else None
                comps.append(FieldPart(FieldCtx(p, m, modulus, prim)))
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
        raise DomainError(
            f"{path}: expected {dom.size} table entries, found {len(digits)}"
        )
    if digits.min() < 0 or digits.max() >= p:
        raise DomainError(f"{path}: table digits must lie in 0..{p - 1}")
    return PFunction(dom, digits)
