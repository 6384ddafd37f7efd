"""Regular expressions over the one-letter alphabet {a}.

Rule guards in a spiking system are regular expressions over a single
symbol, so a guard's language is fully described by the set of spike
counts it accepts.  That set is ultimately periodic (Chrobak 1986): after
some threshold T the membership of n depends only on n mod P.
``compile_ast`` composes the minimal (T, P, residues) form once, bottom up
over the expression, each part held as a bitset over [0, T + P): union
over the lcm of the periods, concatenation as a sumset, star as a
numerical monoid through its Apery set.  After that ``matches`` is an O(1)
table lookup.  ``nfa_matches`` steps Glushkov's position automaton (one
state per a the expression spells, no epsilon edges) n times, a route
independent of the composition.

Grammar (no whitespace; offsets in error messages are byte offsets)::

    E      ::= term ('|' term)*
    term   ::= factor+
    factor ::= base '*'?
    base   ::= 'a' ('^' uint)? | '(' E ')'

``a^k`` denotes k consecutive a's.  ``a^0`` (the empty word) is only
accepted when the factor is starred, e.g. ``a^0*``; a bare ``a^0`` is a
syntax error so users cannot write a plain lambda literal.  A lasso may be
far longer than its expression, so ``compile_ast`` refuses, at offset 0, a
guard with a literal inside that spells more than MAX_WALK a's, a set
spanning more than MAX_WALK counts, or work past MAX_WALK steps, before
building the set or doing the work; a lone literal never composes.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from math import comb, gcd, inf, lcm
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
        cls.__init__ = _compile_init  # compiled on first use: a query uses about half
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


def _compile_init(self, *args, **kwargs):
    """Each record class's __init__ until its first instance: compiles the
    class's own, installs it and delegates.  Straight-line code: a loop
    over the fields would run per instance."""
    cls = type(self)
    body = "".join(f"\n object.__setattr__(self, {n!r}, {n})" for n in cls._fields)
    body += "\n self.__post_init__()" if "__post_init__" in cls.__dict__ else ""
    params = ", ".join(f"{n}=_d[{n!r}]" if n in cls.__dict__ else n for n in cls._fields)
    exec(f"def __init__(self, {params}):{body}", ns := {"_d": cls.__dict__})
    cls.__init__ = ns["__init__"]
    cls.__init__(self, *args, **kwargs)


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
MAX_WALK = 10**6  # counts one composed set may span, and steps one guard may take


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
# The route of nfa_matches, independent of the composition.  Each a the
# expression spells is one position, numbered in order; inside a literal
# q + 1 follows q.  After n >= 1 a's the run is at a set of positions and
# accepts iff that set meets the last positions.  There are no epsilon
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
    languages compile to equal objects.  state_count is threshold + period,
    the size of the minimal unary automaton; it is derived from the other
    fields, so it stays out of eq, hash and repr.
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


# --- composing lassos ---------------------------------------------------------
#
# A lasso (t, p, bits) is a language whose membership from t on depends only
# on n mod p; bit n of the int bits says whether n is in it, for n in the
# window [0, t + p), and bits holds nothing above the window.  Every lasso
# below is normal (minimal p, then minimal t), so equal languages are equal
# triples.


def _mask(n: int) -> int:
    return (1 << n) - 1


def _fill(t: int, p: int, bits: int, w: int) -> int:
    """The bits of the lasso over [0, w), for w >= t + p."""
    cycle, n = bits >> t, p
    while n < w - t:  # repeat the cycle by doubling, not bit by bit
        cycle |= cycle << n
        n += n
    return (bits & _mask(t) | cycle << t) & _mask(w)


def _normal(t: int, p: int, bits: int) -> tuple[int, int, int]:
    """The same language with the minimal period, then the minimal threshold."""
    cycle = format(bits >> t, "b").zfill(p)
    p = (cycle + cycle).find(cycle, 1)  # the least rotation that maps it to itself
    t = ((bits ^ bits >> p) & _mask(t)).bit_length()  # past the last n != n + p
    return t, p, bits & _mask(t + p)


def _members(bits: int):
    """The members of a bitset, ascending."""
    ones = bin(bits)[:1:-1]
    n = ones.find("1")
    while n >= 0:
        yield n
        n = ones.find("1", n + 1)


def _apery(m: int, gens: list[int]) -> list[int]:
    """The least element of each residue mod m in the monoid that m and gens
    generate: shortest paths over the residues, one generator at a time, by
    the round robin of Bocker & Liptak (2007), which walks each cycle of
    +a mod m from its least entry."""
    least: list = [0] + [inf] * (m - 1)
    for a in gens:
        d = gcd(a, m)
        for r in range(d):
            q = min(range(r, m, d), key=least.__getitem__)
            best = least[q]
            if best == inf:
                continue
            for _ in range(m // d - 1):
                q = (q + a) % m
                best += a
                if least[q] < best:
                    best = least[q]
                else:
                    least[q] = best
    return [n for n in least if n != inf]


def _apery_floor(m: int, gens: list[int], j: int) -> int:
    """A lower bound on max(_apery(m, gens)), found without the round robin.
    Each Apery element is a sum of gens, and sums of at most j of them take
    at most comb(j + g, g) values: if that is fewer than the residues the
    gens reach, some element sums j + 1 of them.  0 when that does not hold."""
    if comb(j + len(gens), len(gens)) < m // gcd(m, *gens):
        return (j + 1) * min(gens)
    return 0


class _Composer:
    """The normal lasso of each node, bottom up: union over the lcm of the
    periods, concatenation as a sumset, star as a numerical monoid through
    its Apery set (Nijenhuis 1979).  ``steps`` counts the work done so far:
    one per 64-position word of each copy of a set that is shifted or OR-ed,
    and one per member scanned or residue updated."""

    def __init__(self):
        self.steps = 0

    def spend(self, window: int, copies: int, steps: int = 0) -> None:
        """Refuse, before the work is done, a set past MAX_WALK positions, or
        work that takes the guard past MAX_WALK steps in all."""
        if window > MAX_WALK:
            raise RegexSyntaxError(f"compiling would store more than {MAX_WALK} positions", 0)
        self.steps += copies * (window // 64 + 1) + steps
        if self.steps > MAX_WALK:
            raise RegexSyntaxError(f"compiling would take more than {MAX_WALK} steps", 0)

    def lasso(self, node: RegexAst) -> tuple[int, int, int]:
        if isinstance(node, Literal):
            if node.count < 0:
                raise ValueError("negative literal count")
            self.spend(node.count, 1)  # the a's it spells, as a walk would hold them
            return node.count + 1, 1, 1 << node.count
        if isinstance(node, Concat):
            if not node.parts:
                raise ValueError("empty concat")
            return reduce(self.concat, map(self.lasso, node.parts))
        if isinstance(node, Union):
            if not node.parts:
                raise ValueError("empty union")
            return reduce(self.union, map(self.lasso, node.parts))
        if isinstance(node, Star):
            return self.star(*self.lasso(node.child))
        raise TypeError(f"not a regex node: {node!r}")

    def union(self, a: tuple, b: tuple) -> tuple[int, int, int]:
        (ta, pa, xa), (tb, pb, xb) = a, b
        t, p = max(ta, tb), lcm(pa, pb)
        self.spend(t + p, 2)
        return _normal(t, p, _fill(ta, pa, xa, t + p) | _fill(tb, pb, xb, t + p))

    def concat(self, a: tuple, b: tuple) -> tuple[int, int, int]:
        if a[2].bit_count() > b[2].bit_count():
            a, b = b, a  # shift copies of b by the members of the sparser a
        ta, pa, xa = a
        if not xa >> ta:
            return self.shift(xa, b)
        # a is its tail and its cycle plus the multiples of pa
        parts = [self.shift(xa >> ta << ta, self.close(b, pa))]
        if xa & _mask(ta):
            parts.append(self.shift(xa & _mask(ta), b))
        return reduce(self.union, parts)

    def shift(self, by: int, b: tuple) -> tuple[int, int, int]:
        """The lasso of b shifted by each member of the finite set by."""
        tb, pb, xb = b
        t = by.bit_length() - 1 + tb
        w = t + pb
        self.spend(w, by.bit_count())
        xb = _fill(tb, pb, xb, w)
        out = 0
        for n in _members(by):
            out |= xb << n
        return _normal(t, pb, out & _mask(w))

    def close(self, b: tuple, q: int) -> tuple[int, int, int]:
        """The lasso of b + q N: q-periodic past b's tail, and past where the
        monoid q N + pb N holds every multiple of gcd(q, pb), lcm - q - pb + gcd,
        above b's cycle."""
        tb, pb, xb = b
        t = tb + lcm(q, pb) - q + gcd(q, pb) - 1 if xb >> tb else tb - 1
        w = t + q
        self.spend(w, (w // q).bit_length())
        xb, n = _fill(tb, pb, xb, max(w, tb + pb)), q
        while n < w:
            xb = (xb | xb << n) & _mask(w)
            n += n
        return _normal(t, q, xb & _mask(w))

    def star(self, t: int, p: int, bits: int) -> tuple[int, int, int]:
        """The monoid the members generate: the least nonzero member m and
        the least member of each other residue mod m generate it too."""
        cycles = bits >> t != 0
        rest = bits & ~1
        if not rest and not cycles:
            return 1, 1, 1  # the star of {0}
        m = (rest & -rest).bit_length() - 1 if rest else p  # the least nonzero member
        if cycles:  # past t + lcm(p, m), n - lcm(p, m) is in with n's residue mod m
            self.spend(t + lcm(p, m), 1)
            rest = _fill(t, p, bits, t + lcm(p, m)) & ~1
        self.spend(0, 0, rest.bit_count())
        least: dict[int, int] = {}  # the least member of each residue mod m
        for n in _members(rest):
            least.setdefault(n % m, n)
            if len(least) == m:
                break
        gens = [n for r, n in least.items() if r]
        self.spend(0, 0, len(gens) * m)
        # before the round robin: each gen is above m, so a floor that holds
        # at j = MAX_WALK // m is (j + 1) * min(gens) > MAX_WALK
        self.spend(_apery_floor(m, gens, MAX_WALK // m) + 2, 0)
        apery = _apery(m, gens) if gens else [0]  # (a^k)* needs no table of k residues
        top = max(apery)
        self.spend(top + 2, 1)
        digits = bytearray(b"0" * (top + 1))  # one pass, not one shifted copy each
        for n in apery:
            digits[top - n] = 49  # "1"
        return self.close((top + 1, 1, int(digits, 2)), m)  # the monoid is its Apery set + m N


def compile_ast(ast: RegexAst) -> SemilinearMembership:
    """Compose the minimal lasso of the expression bottom up.  Raises
    RegexSyntaxError, at offset 0, if a set or the work would pass MAX_WALK."""
    if isinstance(ast, Literal) and ast.count >= 0:
        # the lasso of a^k is known without its bits
        k = ast.count
        return SemilinearMembership(k + 1, 1, frozenset((k,)), (False,), k + 2)
    t, p, bits = _Composer().lasso(ast)
    ones = format(bits, "b").zfill(t + p)[::-1]  # n = 0 first
    tail = frozenset(compress(range(t), map("1".__eq__, ones)))
    return SemilinearMembership(t, p, tail, tuple(map("1".__eq__, ones[t:])), t + p)


def compile_regex(src: str) -> SemilinearMembership:
    return compile_ast(parse_regex(src))

