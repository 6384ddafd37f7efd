"""Regular expressions over the one-letter alphabet {a}.

Rule guards in a spiking system are regular expressions over a single
symbol, so a guard's language is fully described by the set of spike
counts it accepts.  That set is ultimately periodic: after some
threshold T the membership of n depends only on n mod P.  ``compile_ast``
extracts the (T, P, residues) form once, by determinizing Glushkov's
position automaton (one state per a the expression spells, no epsilon
edges), after which ``matches`` is an O(1) table lookup.  ``nfa_matches``
steps that automaton n times, a route independent of the lasso extraction.

Grammar (no whitespace; offsets in error messages are byte offsets)::

    E      ::= term ('|' term)*
    term   ::= factor+
    factor ::= base '*'?
    base   ::= 'a' ('^' uint)? | '(' E ')'

``a^k`` denotes k consecutive a's.  ``a^0`` (the empty word) is only
accepted when the factor is starred, e.g. ``a^0*``; a bare ``a^0`` is a
syntax error so users cannot write a plain lambda literal.  A lasso may be
far longer than its automaton (Chrobak 1986), so ``compile_ast`` refuses, at
offset 0, a guard whose walk would store frontiers holding more than
MAX_WALK positions in all; a lone literal never walks.
"""

from __future__ import annotations

from operator import attrgetter

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


class Record:
    """Base of snpkit's immutable records: annotations name the fields, class
    attributes give defaults.  Eq and hash go by value unless ``eq=False``;
    fields named in ``uncompared`` stay out of eq, hash and repr."""

    def __init_subclass__(cls, eq: bool = True, uncompared: tuple[str, ...] = ()):
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        # straight-line code: a loop over the fields would run per instance
        body = "".join(f"\n object.__setattr__(self, {n!r}, {n})" for n in names)
        body += "\n self.__post_init__()" if "__post_init__" in cls.__dict__ else ""
        params = ", ".join(f"{n}=_d[{n!r}]" if n in cls.__dict__ else n for n in names)
        exec(f"def __init__(self, {params}):{body}", ns := {"_d": cls.__dict__})
        cls.__init__ = ns["__init__"]
        cls._shown = shown = tuple(n for n in names if n not in uncompared)
        key = attrgetter(*shown) if len(shown) > 1 else lambda s, g=attrgetter(*shown): (g(s),)
        if eq:
            cls.__hash__ = lambda self: hash(key(self))
            cls.__eq__ = lambda a, b: key(a) == key(b) if type(b) is type(a) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Literal(Record):
    """a^count; count 0 denotes the empty word (internal / starred only)."""

    count: int


class Concat(Record):
    parts: tuple


class Union(Record):
    parts: tuple


class Star(Record):
    child: object


RegexAst = Literal | Concat | Union | Star
MAX_NESTING = 100  # parentheses nested deeper are refused, not recursed into
MAX_WALK = 10**6  # positions the stored frontiers of one guard's walk may hold in all


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
            if len(parts) > 1 and isinstance(parts[-1], Literal) and isinstance(parts[-2], Literal):
                parts[-2:] = [Literal(parts[-2].count + parts[-1].count)]
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
            if self.peek() != "^":
                return Literal(1)
            self.pos += 1
            return Literal(self.uint())
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
        return "a" if ast.count == 1 else f"a^{ast.count}"
    if isinstance(ast, Star):
        inner = print_regex(ast.child)
        return (inner if isinstance(ast.child, Literal) else f"({inner})") + "*"
    if isinstance(ast, Concat):
        return "".join(
            f"({print_regex(p)})" if isinstance(p, (Union, Concat)) else print_regex(p)
            for p in ast.parts
        )
    if isinstance(ast, Union):
        return "|".join(print_regex(part) for part in ast.parts)
    raise TypeError(f"not a regex node: {ast!r}")


# --- Glushkov's position automaton ------------------------------------------
#
# Each a the expression spells is one position, numbered in order; inside a
# literal q + 1 follows q.  After n >= 1 a's the run is at a set of positions
# and accepts iff that set meets the last positions.  There are no epsilon
# edges.  Sets are shared, never copied, so the automaton stays linear in
# the expression: a set is a tuple or list of positions and of further sets.
# The last positions of a node share a list, its cell, to which the node
# appends the set that may follow them and a parent whose last positions
# include them appends its own cell.  ends maps each literal's last position
# to its cell, and the start, position -1 ("nothing read"), to the first.


def _positions(ast: RegexAst):
    """(ends, end): a frontier meets the last positions iff it reaches end."""
    ends: dict[int, list] = {}
    size = 0

    def walk(node) -> tuple[int | tuple, list, bool]:
        nonlocal size
        cell: list = []
        if isinstance(node, Literal):
            if node.count < 0:
                raise ValueError("negative literal count")
            if not node.count:
                return (), cell, True
            size += node.count
            ends[size - 1] = cell
            return size - node.count, cell, False
        if isinstance(node, Concat):
            if not node.parts:
                raise ValueError("empty concat")
            # right to left, so each part is linked once, to all it may meet
            walks = [walk(part) for part in node.parts]
            first, last, nullable = walks.pop()
            last.append(cell)
            for f, l, n in reversed(walks):
                l.extend((first, cell) if nullable else (first,))
                first = (f, first) if n else f
                nullable = n and nullable
            return first, cell, nullable
        if isinstance(node, Union):
            if not node.parts:
                raise ValueError("empty union")
            firsts, lasts, nullables = zip(*map(walk, node.parts))
            for last in lasts:
                last.append(cell)
            return firsts, cell, any(nullables)
        if isinstance(node, Star):
            first, last, _ = walk(node.child)
            if not isinstance(node.child, Star):  # which linked the same sets
                last.append(first)
            return first, last, True
        raise TypeError(f"not a regex node: {node!r}")

    first, last, nullable = walk(ast)
    end: list = []
    last.append(end)
    ends[-1] = [first, end] if nullable else [first]
    return ends, end


def _follow(frontier, ends: dict, end: list) -> tuple[frozenset[int], bool]:
    """The positions after the frontier, and whether it reaches end."""
    hits = frontier.intersection(ends)
    out = {q + 1 for q in frontier.difference(hits)}
    sets = [ends[q] for q in hits]
    seen = set(map(id, sets))
    for items in sets:  # sets grows as nested ones turn up; each is read once
        for x in items:
            if x.__class__ is int:
                out.add(x)
            elif id(x) not in seen:
                seen.add(id(x))
                sets.append(x)
    return frozenset(out), id(end) in seen


def nfa_matches(ast: RegexAst, n: int) -> bool:
    """Decide a^n membership by stepping the positions n times (reference route)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ends, end = _positions(ast)
    frontier = frozenset({-1})
    for _ in range(n):
        frontier = _follow(frontier, ends, end)[0]
    return _follow(frontier, ends, end)[1]


class SemilinearMembership(Record, uncompared=("state_count",)):
    """Ultimately periodic membership table for a unary language.

    matches(n) is n in tail for n < threshold and cycle[(n - threshold) %
    period] otherwise; tail holds the accepted counts below threshold and
    cycle is one period.  threshold and period are minimal, so equal
    languages compile to equal objects.  state_count is the number of
    distinct subset states along the determinized run, which depends on
    the expression, so it stays out of eq, hash and repr.
    """

    threshold: int
    period: int
    tail: frozenset[int]
    cycle: tuple[bool, ...]
    state_count: int

    def matches(self, n: int) -> bool:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n < self.threshold:
            return n in self.tail
        return self.cycle[(n - self.threshold) % self.period]

    def finite_language(self) -> frozenset[int] | None:
        """The accepted set if finite, else None."""
        return None if any(self.cycle) else self.tail

    def is_singleton(self, n: int) -> bool:
        """True iff the language is exactly {n}."""
        return self.finite_language() == frozenset([n])


def compile_ast(ast: RegexAst) -> SemilinearMembership:
    """Determinize the position automaton and extract the minimal lasso.
    Raises RegexSyntaxError if the walk would pass MAX_WALK."""
    if isinstance(ast, Literal) and ast.count >= 0:
        # the lasso of a^k is known without its k-state chain
        k = ast.count
        return SemilinearMembership(k + 1, 1, frozenset((k,)), (False,), k + 2)
    ends, end = _positions(ast)
    over = f"compiling would store more than {MAX_WALK} positions"
    if max(ends) >= MAX_WALK:  # each position shows up in some stored frontier
        raise RegexSyntaxError(over, 0)
    seen: dict[frozenset[int], int] = {}
    accepts: list[bool] = []
    frontier = frozenset({-1})  # "nothing read": no later frontier holds -1
    held = -1  # positions in the stored frontiers; the start marker is none
    while frontier not in seen:
        held += len(frontier)
        if held > MAX_WALK:
            raise RegexSyntaxError(over, 0)
        seen[frontier] = len(accepts)
        frontier, accept = _follow(frontier, ends, end)
        accepts.append(accept)
    loop_start = seen[frontier]
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
    # one period, rotated so cycle[0] corresponds to n = threshold
    off = (threshold - t_raw) % period
    tail = frozenset(n for n in range(threshold) if accepts[n])
    cycle = tuple(cyc[(off + i) % p_raw] for i in range(period))
    return SemilinearMembership(threshold, period, tail, cycle, len(accepts))


def compile_regex(src: str) -> SemilinearMembership:
    return compile_ast(parse_regex(src))

