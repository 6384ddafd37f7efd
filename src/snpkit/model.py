"""Static model of a spiking system: neurons, ordered rules, synapses.

The file format is line oriented with `#` comments::

    neuron <name> spikes=<uint>
    rule <name> [E=<regex>] c=<uint> p=<uint> d=<uint>
    syn <name> <name>
    out <name>
    in <name>

A rule line names its owner neuron.  p = 0 encodes a forgetting rule
(consume exactly c, produce nothing); omitting E defaults the guard to
the singleton a^c.  Neuron declaration order fixes the column indices
and rule declaration order fixes the row indices used by every matrix
and vector downstream; all indices in the API are 0-based.

Parsing enforces referential integrity (names declared before use,
no duplicate synapses or directives).  Semantic constraints (guard
exclusion for forgetting amounts, irreflexive synapses, c >= p, d = 0
on forgetting rules) are checked by ``validate`` which returns its problems
instead of raising, so a CLI can show all problems at once.
"""

from __future__ import annotations

import re
from functools import cached_property

from .regex import (
    Record,
    RegexSyntaxError,
    SemilinearMembership,
    compile_ast,
    parse_regex,
    print_regex,
)

__all__ = [
    "Rule",
    "make_rule",
    "SNPSystem",
    "ReportEntry",
    "SystemParseError",
    "parse_system",
    "validate",
    "serialize_system",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Rule(Record):
    """One rule E / a^c -> a^p ; d of its owner neuron (p = 0: forgetting)."""

    owner: int
    guard_src: str  # canonical regex source
    c: int
    p: int
    d: int
    guard: SemilinearMembership  # compiled from guard_src

    @property
    def is_forgetting(self) -> bool:
        return self.p == 0

    def applicable(self, spikes: int) -> bool:
        """Rule can fire on a neuron holding `spikes`: guard matches and
        enough spikes are present to consume."""
        return spikes >= self.c and self.guard.matches(spikes)


def make_rule(
    owner: int, guard_src: str | None, c: int, p: int, d: int, guards: dict | None = None
) -> Rule:
    """Build a Rule with a compiled, canonicalized guard.  `guards` maps each
    source seen so far, written or canonical, to its canonical source and
    compiled guard (parse_system keeps one per file): each written source is
    parsed once, and equal canonical source means an equal language and
    lasso, so each distinct guard is compiled once."""
    # no E=: exactly a^c, which for c = 0 is a^0* (the empty word alone)
    written = guard_src if guard_src is not None else {0: "a^0*", 1: "a"}.get(c, f"a^{c}")
    guards = {} if guards is None else guards
    if written not in guards:
        ast = parse_regex(written)
        src = print_regex(ast)
        if src not in guards:  # a canonical source prints as itself
            guards[src] = src, compile_ast(ast)
        guards[written] = guards[src]
    src, guard = guards[written]
    return Rule(owner=owner, guard_src=src, c=c, p=p, d=d, guard=guard)


class SNPSystem(Record):
    neuron_names: tuple[str, ...]
    initial: tuple[int, ...]  # spikes per neuron at k = 0
    rules: tuple[Rule, ...]
    syn: tuple[tuple[int, int], ...]  # ordered pairs, declaration order
    out_neuron: int | None = None
    in_neuron: int | None = None

    @property
    def neuron_count(self) -> int:
        return len(self.neuron_names)

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    @cached_property
    def rules_of(self) -> tuple[tuple[int, ...], ...]:
        """Rule indices per neuron, in rule order; bad owners are filed nowhere."""
        per: list[list[int]] = [[] for _ in self.neuron_names]
        for i, r in enumerate(self.rules):
            if 0 <= r.owner < len(per):
                per[r.owner].append(i)
        return tuple(tuple(ix) for ix in per)

    @cached_property
    def targets_of(self) -> tuple[tuple[int, ...], ...]:
        """Synapse targets per neuron, in synapse declaration order."""
        per: list[list[int]] = [[] for _ in self.neuron_names]
        for a, b in self.syn:
            per[a].append(b)
        return tuple(tuple(t) for t in per)

    @cached_property
    def delayed_rules(self) -> tuple[int, ...]:
        """Indices of the rules with a delay, in rule order."""
        return tuple(i for i, r in enumerate(self.rules) if r.d > 0)

    @cached_property
    def has_delays(self) -> bool:
        return bool(self.delayed_rules)


class SystemParseError(ValueError):
    """Malformed system file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_RULE_LINE = re.compile(
    r"rule\s+(?P<name>\S+)"
    r"(?:\s+E=(?P<regex>\S+))?"
    r"\s+c=(?P<c>\d+)\s+p=(?P<p>\d+)\s+d=(?P<d>\d+)\s*\Z"
)


def parse_system(text: str) -> SNPSystem:
    names: list[str] = []
    initial: list[int] = []
    rules: list[Rule] = []
    guards: dict[str, tuple[str, SemilinearMembership]] = {}
    syn: list[tuple[int, int]] = []
    seen_syn: set[tuple[int, int]] = set()
    designated: dict[str, int] = {}  # "out" and "in"
    index: dict[str, int] = {}

    def err(msg: str, lineno: int):
        raise SystemParseError(msg, lineno)

    def lookup(name: str, lineno: int) -> int:
        if name not in index:
            err(f"unknown neuron {name!r}", lineno)
        return index[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "neuron":
            if len(parts) != 3 or not parts[2].startswith("spikes="):
                err("expected: neuron <name> spikes=<uint>", lineno)
            name = parts[1]
            if not _NAME_RE.match(name):
                err(f"bad neuron name {name!r}", lineno)
            if name in index:
                err(f"duplicate neuron {name!r}", lineno)
            val = parts[2][len("spikes="):]
            try:
                if not val.isdigit():
                    raise ValueError(val)
                spikes = int(val)  # refuses superscripts and over-long numbers
            except ValueError:
                err(f"spikes must be an unsigned integer, got {val!r}", lineno)
            index[name] = len(names)
            names.append(name)
            initial.append(spikes)
        elif kind == "rule":
            m = _RULE_LINE.match(line)
            if not m:
                err("expected: rule <name> [E=<regex>] c=<uint> p=<uint> d=<uint>", lineno)
            owner = lookup(m["name"], lineno)
            try:
                c, p, d = int(m["c"]), int(m["p"]), int(m["d"])
            except ValueError:  # more digits than int() converts
                err("c, p and d have too many digits to convert", lineno)
            try:
                rules.append(make_rule(owner, m["regex"], c, p, d, guards))
            except RegexSyntaxError as exc:
                err(f"bad guard regex: {exc}", lineno)
        elif kind == "syn":
            if len(parts) != 3:
                err("expected: syn <name> <name>", lineno)
            pair = (lookup(parts[1], lineno), lookup(parts[2], lineno))
            if pair in seen_syn:
                err(f"duplicate synapse {parts[1]} -> {parts[2]}", lineno)
            seen_syn.add(pair)
            syn.append(pair)
        elif kind in ("out", "in"):
            if len(parts) != 2:
                err(f"expected: {kind} <name>", lineno)
            if kind in designated:
                err(f"{kind} neuron already designated", lineno)
            designated[kind] = lookup(parts[1], lineno)
        else:
            err(f"unknown directive {kind!r}", lineno)

    return SNPSystem(
        neuron_names=tuple(names),
        initial=tuple(initial),
        rules=tuple(rules),
        syn=tuple(syn),
        out_neuron=designated.get("out"),
        in_neuron=designated.get("in"),
    )


class ReportEntry(Record):
    severity: str  # "error"
    code: str
    message: str
    location: str


def validate(sys: SNPSystem) -> tuple[ReportEntry, ...]:
    """Check the semantic constraints: one entry per problem, every one an
    error, so the system is valid exactly when none is returned."""
    entries: list[ReportEntry] = []
    m = sys.neuron_count

    def error(code: str, message: str, location: str):
        entries.append(ReportEntry("error", code, message, location))

    for j, spikes in enumerate(sys.initial):
        if spikes < 0:
            error("negative-spikes", f"initial spikes {spikes} < 0", f"neuron {j}")

    for i, r in enumerate(sys.rules):
        loc = f"rule {i}"
        if not (0 <= r.owner < m):
            error("bad-owner", f"owner index {r.owner} out of range", loc)
            continue
        if r.c < 1:
            error("consume-zero", "rules must consume at least one spike", loc)
        if r.d < 0:
            error("negative-delay", f"delay {r.d} < 0", loc)
        if r.p >= 1 and r.c < r.p:
            error(
                "consume-lt-produce",
                f"spiking rule consumes {r.c} < produces {r.p}",
                loc,
            )
        if r.is_forgetting:
            if r.d != 0:
                error("forgetting-delay", "forgetting rules cannot carry a delay", loc)
            if not r.guard.is_singleton(r.c):
                error("forgetting-guard", f"forgetting guard must be exactly a^{r.c}", loc)

    # a forgetting amount must lie outside every sibling spiking guard
    for i, r in enumerate(sys.rules):
        if not r.is_forgetting or not (0 <= r.owner < m):
            continue
        for j in sys.rules_of[r.owner]:
            other = sys.rules[j]
            if other.is_forgetting:
                continue
            if other.guard.matches(r.c):
                error(
                    "forgetting-exclusion",
                    f"a^{r.c} is forgotten by rule {i} but matches the guard of rule {j}",
                    f"rule {i}",
                )

    seen: set[tuple[int, int]] = set()
    for a, b in sys.syn:
        loc = f"syn ({a},{b})"
        if not (0 <= a < m and 0 <= b < m):
            error("bad-synapse", "synapse endpoint out of range", loc)
            continue
        if a == b:
            error("self-synapse", "synapses must connect distinct neurons", loc)
        if (a, b) in seen:
            error("duplicate-synapse", "synapse declared twice", loc)
        seen.add((a, b))

    for label, idx in (("out", sys.out_neuron), ("in", sys.in_neuron)):
        if idx is not None and not (0 <= idx < m):
            error(f"bad-{label}", f"{label} neuron index {idx} out of range", label)

    return tuple(entries)


def serialize_system(sys: SNPSystem) -> str:
    """Canonical text form; parse_system(serialize_system(s)) == s."""
    lines: list[str] = []
    for name, spikes in zip(sys.neuron_names, sys.initial):
        lines.append(f"neuron {name} spikes={spikes}")
    for r in sys.rules:
        lines.append(
            f"rule {sys.neuron_names[r.owner]} E={r.guard_src} c={r.c} p={r.p} d={r.d}"
        )
    for a, b in sys.syn:
        lines.append(f"syn {sys.neuron_names[a]} {sys.neuron_names[b]}")
    if sys.out_neuron is not None:
        lines.append(f"out {sys.neuron_names[sys.out_neuron]}")
    if sys.in_neuron is not None:
        lines.append(f"in {sys.neuron_names[sys.in_neuron]}")
    return "\n".join(lines) + "\n"
