"""Regular expressions over the one-letter alphabet {a}.

Rule guards in a spiking system are regular expressions over a single
symbol, so a guard's language is fully described by the set of spike
counts it accepts.  That set is ultimately periodic: after some
threshold T the membership of n depends only on n mod P.  ``compile_ast``
extracts the (T, P, residues) form once, after which ``matches`` is an
O(1) table lookup.  ``nfa_matches`` keeps the direct NFA step simulation
as an independent evaluation route.

Grammar (no whitespace; offsets in error messages are byte offsets)::

    E      ::= term ('|' term)*
    term   ::= factor+
    factor ::= base '*'?
    base   ::= 'a' ('^' uint)? | '(' E ')'

``a^k`` denotes k consecutive a's.  ``a^0`` (the empty word) is only
accepted when the factor is starred, e.g. ``a^0*``; a bare ``a^0`` is a
syntax error so users cannot write a plain lambda literal.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Literal",
    "Concat",
    "Union",
    "Star",
    "RegexSyntaxError",
    "SemilinearMembership",
    "parse_regex",
    "print_regex",
    "compile_ast",
    "compile_regex",
    "nfa_matches",
]


@dataclass(frozen=True)
class Literal:
    """a^count; count 0 denotes the empty word (internal / starred only)."""

    count: int


@dataclass(frozen=True)
class Concat:
    parts: tuple


@dataclass(frozen=True)
class Union:
    parts: tuple


@dataclass(frozen=True)
class Star:
    child: object


RegexAst = Literal | Concat | Union | Star
MAX_NESTING = 100  # parentheses nested deeper are refused, not recursed into


class RegexSyntaxError(ValueError):
    """Raised on malformed regex source; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.src[self.pos] if self.pos < len(self.src) else None

    def fail(self, message: str, offset: int | None = None):
        raise RegexSyntaxError(message, self.pos if offset is None else offset)

    def parse(self) -> RegexAst:
        node = self.union()
        if self.pos != len(self.src):
            self.fail(f"unexpected {self.src[self.pos]!r}")
        return node

    def union(self) -> RegexAst:
        terms = [self.term()]
        while self.peek() == "|":
            self.pos += 1
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Union(tuple(terms))

    def term(self) -> RegexAst:
        parts: list = []
        while self.peek() is not None and self.peek() not in "|)":
            parts.append(self.factor())
            # adjacent unstarred literals denote one run of a's
            if (
                len(parts) >= 2
                and isinstance(parts[-1], Literal)
                and isinstance(parts[-2], Literal)
            ):
                b = parts.pop()
                a = parts.pop()
                parts.append(Literal(a.count + b.count))
        if not parts:
            self.fail("expected 'a' or '('")
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def factor(self) -> RegexAst:
        start = self.pos
        base = self.base()
        starred = self.peek() == "*"
        if starred:
            self.pos += 1
        if isinstance(base, Literal) and base.count == 0 and not starred:
            self.fail("a^0 is only allowed immediately under '*'", start)
        return Star(base) if starred else base

    def base(self) -> RegexAst:
        ch = self.peek()
        if ch == "a":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                return Literal(self.uint())
            return Literal(1)
        if ch == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            node = self.union()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return node
        self.fail("expected 'a' or '('" if ch is None else f"unexpected {ch!r}")

    def uint(self) -> int:
        start = self.pos
        while self.peek() is not None and self.peek().isdigit():
            self.pos += 1
        try:
            return int(self.src[start : self.pos])
        except ValueError:  # no digits, superscripts, or more than int() converts
            self.fail("expected an unsigned integer", start)


def parse_regex(src: str) -> RegexAst:
    """Parse regex source into an AST.  Raises RegexSyntaxError."""
    return _Parser(src).parse()


def print_regex(ast: RegexAst) -> str:
    """Canonical source form; parse_regex(print_regex(x)) is stable."""
    if isinstance(ast, Literal):
        if ast.count == 1:
            return "a"
        return f"a^{ast.count}"
    if isinstance(ast, Star):
        child = ast.child
        if isinstance(child, Literal):
            return print_regex(child) + "*"
        return "(" + print_regex(child) + ")*"
    if isinstance(ast, Concat):
        out = []
        for part in ast.parts:
            if isinstance(part, (Union, Concat)):
                out.append("(" + print_regex(part) + ")")
            else:
                out.append(print_regex(part))
        return "".join(out)
    if isinstance(ast, Union):
        return "|".join(print_regex(part) for part in ast.parts)
    raise TypeError(f"not a regex node: {ast!r}")


# --- Thompson construction -------------------------------------------------
#
# States are integers.  eps[q] lists epsilon successors, step[q] lists
# successors on reading one 'a'.  A fragment is (entry, exit); exit has no
# outgoing edges inside the fragment.


def _build_nfa(ast: RegexAst):
    eps: list[list[int]] = []
    step: list[list[int]] = []

    def new_state() -> int:
        eps.append([])
        step.append([])
        return len(eps) - 1

    def frag(node) -> tuple[int, int]:
        if isinstance(node, Literal):
            if node.count < 0:
                raise ValueError("negative literal count")
            entry = new_state()
            cur = entry
            for _ in range(node.count):
                nxt = new_state()
                step[cur].append(nxt)
                cur = nxt
            return entry, cur
        if isinstance(node, Concat):
            if not node.parts:
                raise ValueError("empty concat")
            entry, out = frag(node.parts[0])
            for part in node.parts[1:]:
                e2, out2 = frag(part)
                eps[out].append(e2)
                out = out2
            return entry, out
        if isinstance(node, Union):
            if not node.parts:
                raise ValueError("empty union")
            entry = new_state()
            out = new_state()
            for part in node.parts:
                e, x = frag(part)
                eps[entry].append(e)
                eps[x].append(out)
            return entry, out
        if isinstance(node, Star):
            entry = new_state()
            out = new_state()
            e, x = frag(node.child)
            eps[entry].append(e)
            eps[entry].append(out)
            eps[x].append(e)
            eps[x].append(out)
            return entry, out
        raise TypeError(f"not a regex node: {node!r}")

    entry, out = frag(ast)
    return eps, step, entry, out


def _closure(eps, states: frozenset[int]) -> frozenset[int]:
    seen = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for r in eps[q]:
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return frozenset(seen)


def nfa_matches(ast: RegexAst, n: int) -> bool:
    """Decide a^n membership by stepping the NFA n times (reference route)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    eps, step, entry, out = _build_nfa(ast)
    frontier = _closure(eps, frozenset([entry]))
    for _ in range(n):
        frontier = _closure(
            eps, frozenset(r for q in frontier for r in step[q])
        )
        if not frontier:
            return False
    return out in frontier


@dataclass(frozen=True)
class SemilinearMembership:
    """Ultimately periodic membership table for a unary language.

    matches(n) is tail[n] for n < threshold and cycle[(n - threshold) %
    period] otherwise.  threshold and period are minimal, so equal
    languages compile to equal objects.  state_count is the number of
    distinct subset states along the determinized run (tail + cycle).
    """

    threshold: int
    period: int
    tail: tuple[bool, ...]
    cycle: tuple[bool, ...]
    state_count: int

    def matches(self, n: int) -> bool:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n < self.threshold:
            return self.tail[n]
        return self.cycle[(n - self.threshold) % self.period]

    def finite_language(self) -> frozenset[int] | None:
        """The accepted set if finite, else None."""
        if any(self.cycle):
            return None
        return frozenset(i for i, acc in enumerate(self.tail) if acc)

    def is_singleton(self, n: int) -> bool:
        """True iff the language is exactly {n}."""
        return self.finite_language() == frozenset([n])


def compile_ast(ast: RegexAst) -> SemilinearMembership:
    """Determinize the unary NFA and extract the minimal lasso."""
    eps, step, entry, out = _build_nfa(ast)
    start = _closure(eps, frozenset([entry]))
    seen: dict[frozenset[int], int] = {start: 0}
    accepts: list[bool] = [out in start]
    frontier = start
    while True:
        frontier = _closure(
            eps, frozenset(r for q in frontier for r in step[q])
        )
        if frontier in seen:
            loop_start = seen[frontier]
            break
        seen[frontier] = len(accepts)
        accepts.append(out in frontier)
    t_raw, p_raw = loop_start, len(accepts) - loop_start
    # minimal period of the cyclic part
    cyc = accepts[t_raw:]
    period = next(
        p
        for p in range(1, p_raw + 1)
        if p_raw % p == 0 and all(cyc[i] == cyc[i % p] for i in range(p_raw))
    )
    # shrink the threshold while the tail already follows the cycle
    threshold = t_raw
    while threshold > 0 and accepts[threshold - 1] == cyc[(threshold - 1 - t_raw) % period]:
        threshold -= 1
    # rotate so cycle[0] corresponds to n = threshold
    off = (threshold - t_raw) % period
    cycle = tuple(cyc[off:] + cyc[:off])
    return SemilinearMembership(
        threshold=threshold,
        period=period,
        tail=tuple(accepts[:threshold]),
        cycle=cycle,
        state_count=len(accepts),
    )


def compile_regex(src: str) -> SemilinearMembership:
    return compile_ast(parse_regex(src))

