"""Text format for torus maps: integer winding matrix plus a finite
trigonometric periodic part.

    dim=2
    M=[[2,1],[0,1]]
    G[1]=0.05*sin(2*pi*(z1+z2))   # comments run to end of line

Frequencies are integer combinations of z1..zd inside a mandatory
2*pi*(...) factor, so every parsed map is 1-periodic by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SpecParseError


@dataclass(frozen=True, order=True)
class TrigTerm:
    component: int          # 1-based index of the G component this feeds
    frequency: tuple[int, ...]
    kind: str               # "sin" | "cos"
    coefficient: float


@dataclass(frozen=True)
class TorusMapSpec:
    d: int
    M: tuple[tuple[int, ...], ...]
    terms: tuple[TrigTerm, ...]

    def M_list(self):
        return [list(r) for r in self.M]


class _Tokenizer:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def error(self, msg):
        raise SpecParseError(msg, self.line, self.pos + 1)

    def expect(self, ch):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            got = self.text[self.pos] if self.pos < len(self.text) else "end of line"
            self.error(f"expected {ch!r}, got {got!r}")
        self.pos += 1

    def at_end(self):
        self._skip_ws()
        return self.pos >= len(self.text)

    def sign(self, signs="+-"):
        """Consume the next character if it is one of signs: -1 for '-',
        1 for '+'; None (nothing consumed) otherwise."""
        ch = self.peek()
        if ch is None or ch not in signs:
            return None
        self.pos += 1
        return -1 if ch == "-" else 1

    def number(self):
        """Read an unsigned numeric literal; returns (text, value, is_integer,
        column), column the 1-based column of its first character."""
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit()
                                             or self.text[self.pos] in ".eE"
                                             or (self.text[self.pos] in "+-"
                                                 and self.pos > start
                                                 and self.text[self.pos - 1] in "eE")):
            self.pos += 1
        tok = self.text[start:self.pos]
        if not tok:
            self.error("expected a number")
        try:
            val = float(tok)
        except ValueError:
            self.error(f"bad numeric literal {tok!r}")
        if math.isinf(val):
            raise SpecParseError(f"numeric literal {tok!r} overflows float64",
                                 self.line, start + 1)
        is_int = all(c.isdigit() for c in tok)
        return tok, val, is_int, start + 1

    def name(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
                self.text[self.pos].isalpha()
                or (self.pos > start and self.text[self.pos].isdigit())):
            self.pos += 1
        return self.text[start:self.pos], start + 1


def float_exact(x: int) -> bool:
    """Whether float64 holds the integer x exactly (|x| <= 2^53): beyond
    that the float M and frequencies of a map would not be its own."""
    return abs(x) <= 2 ** 53


def _strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


def _parse_list(tk: _Tokenizer, item) -> list:
    """A bracketed, comma-separated list of item(tk)."""
    out = []
    tk.expect("[")
    while True:
        out.append(item(tk))
        if tk.peek() != ",":
            tk.expect("]")
            return out
        tk.expect(",")


def _parse_int(tk: _Tokenizer) -> int:
    sign = tk.sign("-") or 1
    tok, val, is_int, col = tk.number()
    if not is_int:
        raise SpecParseError(f"non-integer matrix entry {tok!r}", tk.line, col)
    x = sign * int(tok)
    if not float_exact(x):
        raise SpecParseError(f"matrix entry {x} is beyond 2^53, where float64 rounds "
                             "integers", tk.line, col)
    return x


def _parse_lincomb(tk: _Tokenizer, d: int) -> tuple[int, ...]:
    freq = [0] * d
    first = True
    while True:
        sign = tk.sign()
        if sign is None:
            if not first:
                break
            sign = 1
        coef, ccol = 1, None
        if tk.peek() is not None and tk.peek().isdigit():
            tok, val, is_int, ccol = tk.number()
            if not is_int:
                raise SpecParseError(f"non-integer frequency {tok!r}", tk.line, ccol)
            coef = int(tok)
            tk.expect("*")
        name, col = tk.name()
        if not name.startswith("z") or not name[1:].isdigit():
            raise SpecParseError(
                f"unknown variable {name!r} (only z1..z{d} allowed)", tk.line, col)
        idx = int(name[1:])
        if not 1 <= idx <= d:
            raise SpecParseError(f"variable {name!r} out of range for dim={d}",
                                 tk.line, col)
        freq[idx - 1] += sign * coef
        if not float_exact(freq[idx - 1]):
            raise SpecParseError(f"frequency {freq[idx - 1]} of {name} is beyond 2^53, where "
                                 "float64 rounds integers", tk.line, ccol or col)
        first = False
    return tuple(freq)


def _parse_term(tk: _Tokenizer, d: int, sign: int):
    coefficient = 1.0
    ch = tk.peek()
    if ch is not None and (ch.isdigit() or ch == "."):
        tok, val, is_int, col = tk.number()
        coefficient = val
        tk.expect("*")
    name, col = tk.name()
    if name not in ("sin", "cos"):
        raise SpecParseError(f"expected sin or cos, got {name!r}", tk.line, col)
    tk.expect("(")
    tok, val, is_int, col = tk.number()
    if tok != "2":
        raise SpecParseError("the 2*pi*(...) factor is mandatory", tk.line, col)
    tk.expect("*")
    pi_name, col = tk.name()
    if pi_name != "pi":
        raise SpecParseError(f"expected 'pi', got {pi_name!r}", tk.line, col)
    tk.expect("*")
    tk.expect("(")
    freq = _parse_lincomb(tk, d)
    tk.expect(")")
    tk.expect(")")
    return sign * coefficient, name, freq


def parse_spec(text: str) -> TorusMapSpec:
    """Parse the map DSL; raises SpecParseError with line/column on bad input."""
    lines = text.split("\n")
    d = None
    M = None
    raw_terms = []
    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        tk = _Tokenizer(line, lineno)
        name, col = tk.name()
        if name == "dim":
            if d is not None:
                raise SpecParseError("duplicate dim line", lineno, col)
            tk.expect("=")
            tok, val, is_int, ncol = tk.number()
            if not is_int or int(tok) < 1:
                raise SpecParseError("dim must be a positive integer", lineno, ncol)
            d = int(tok)
        elif name == "M":
            if d is None:
                raise SpecParseError("dim must come before M", lineno, col)
            if M is not None:
                raise SpecParseError("duplicate M line", lineno, col)
            tk.expect("=")
            M = _parse_list(tk, lambda t: _parse_list(t, _parse_int))
            if len(M) != d or any(len(r) != d for r in M):
                raise SpecParseError(f"M must be {d}x{d}", lineno, col)
        elif name == "G":
            if d is None or M is None:
                raise SpecParseError("dim and M must come before G lines", lineno, col)
            tk.expect("[")
            tok, val, is_int, ncol = tk.number()
            if not is_int:
                raise SpecParseError("component index must be an integer", lineno, ncol)
            comp = int(tok)
            if not 1 <= comp <= d:
                raise SpecParseError(f"component index {comp} out of range 1..{d}",
                                     lineno, ncol)
            tk.expect("]")
            tk.expect("=")
            sign = tk.sign() or 1
            while True:
                coef, kind, freq = _parse_term(tk, d, sign)
                raw_terms.append(TrigTerm(component=comp, frequency=freq,
                                          kind=kind, coefficient=coef))
                if tk.at_end():
                    break
                sign = tk.sign()
                if sign is None:
                    tk.error(f"unexpected {tk.peek()!r} after term")
        else:
            raise SpecParseError(f"unexpected {name or line.strip()[0]!r}", lineno, col)
        if name in ("dim", "M") and not tk.at_end():
            tk.error("trailing input")
    if d is None:
        raise SpecParseError("missing dim line", max(1, len(lines)), 1)
    if M is None:
        raise SpecParseError("missing M line", max(1, len(lines)), 1)
    return make_spec(d, M, raw_terms)


def make_spec(d: int, M, terms) -> TorusMapSpec:
    """Build a canonical spec: duplicate (component, kind, frequency) terms
    are summed, exact-zero terms dropped, ordering fixed."""
    merged: dict[tuple, float] = {}
    for t in terms:
        if len(t.frequency) != d:
            raise ValueError("frequency vector length must equal dim")
        if not 1 <= t.component <= d:
            raise ValueError("component index out of range")
        key = (t.component, tuple(int(x) for x in t.frequency), t.kind)
        merged[key] = merged.get(key, 0.0) + float(t.coefficient)
    out = []
    for (comp, freq, kind), coef in merged.items():
        if coef != 0.0:
            out.append(TrigTerm(component=comp, frequency=freq, kind=kind,
                                coefficient=coef))
    out.sort(key=lambda t: (t.component, t.frequency, t.kind))
    return TorusMapSpec(d=d, M=tuple(tuple(int(x) for x in r) for r in M),
                        terms=tuple(out))


def _format_lincomb(freq) -> str:
    parts = []
    for i, c in enumerate(freq):
        if c == 0:
            continue
        var = f"z{i + 1}"
        mag = abs(c)
        body = var if mag == 1 else f"{mag}*{var}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0*z1"


def serialize_spec(spec: TorusMapSpec) -> str:
    """Canonical text form; parse_spec(serialize_spec(s)) == s structurally."""
    lines = [f"dim={spec.d}"]
    lines.append("M=[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                                  for row in spec.M) + "]")
    by_comp: dict[int, list[TrigTerm]] = {}
    for t in spec.terms:
        by_comp.setdefault(t.component, []).append(t)
    for comp in sorted(by_comp):
        parts = []
        for t in by_comp[comp]:
            body = f"{abs(t.coefficient)!r}*{t.kind}(2*pi*({_format_lincomb(t.frequency)}))"
            parts.append(("-" if t.coefficient < 0 else "+" if parts else "") + body)
        lines.append(f"G[{comp}]=" + "".join(parts))
    return "\n".join(lines) + "\n"
