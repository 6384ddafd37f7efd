"""Seeded workload generation: the same seed gives the same files and the
same query list.

Each workload mixes a bulk of generated queries with named cases pinned
to shapes known to be slow.  Query sizes follow a fixed schedule and the
seed varies wiring, spike counts, guards, targets and order, so that a
run's total work hardly depends on the seed.  Every list holds at least
100 queries, so that a run has ten samples beyond its p90, and a tier of
at least 16 queries one cost level above the bulk, so that the p90 falls
inside that tier instead of on the noise at the edge of the bulk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracles import bfs_depths, tree_sizes, valid_vectors
from specs import Guard, RuleSpec, Spec, fraction_rank


@dataclass(frozen=True)
class Query:
    case: str
    command: str
    file: str
    fmt: str = "text"
    policy: str = "first"
    mode: str = "standard"
    steps: int = 0
    seed: int | None = None
    target: tuple[int, ...] = ()
    start: tuple[int, ...] | None = None
    kmax: int = 0
    vmax: int | None = None

    def argv(self, path: str) -> list[str]:
        args = [self.command, path]
        if self.command == "simulate":
            args += ["--steps", str(self.steps), "--policy", self.policy, "--mode", self.mode]
            if self.seed is not None:
                args += ["--seed", str(self.seed)]
        elif self.command == "reach":
            args += ["--target", ",".join(map(str, self.target)), "--kmax", str(self.kmax)]
            if self.start is not None:
                args += ["--from", ",".join(map(str, self.start))]
            if self.vmax is not None:
                args += ["--vmax", str(self.vmax)]
        if self.fmt != "text":
            args += ["--format", self.fmt]
        return args

    def reach_args(self, system):
        """(start, target, step bound) as the CLI reads them; `system` is a
        Spec or a parsed SNPSystem, of which only `initial` is read."""
        start = system.initial if self.start is None else self.start
        bound = self.kmax
        if self.start is not None and self.vmax is not None:
            bound = self.vmax
        return tuple(start), tuple(self.target), bound


@dataclass
class Workload:
    name: str
    specs: dict[str, Spec]
    queries: list[Query]


def _names(m: int, stem: str = "n") -> tuple[str, ...]:
    return tuple(f"{stem}{j}" for j in range(m))


def _ring_syn(rng: random.Random, m: int, chord_p: float) -> tuple[tuple[int, int], ...]:
    """A ring through every neuron plus random chords (no self-loops)."""
    syn = [(j, (j + 1) % m) for j in range(m)] if m > 1 else []
    have = set(syn)
    for j in range(m):
        if m > 2 and rng.random() < chord_p:
            t = rng.randrange(m)
            if t != j and (j, t) not in have:
                have.add((j, t))
                syn.append((j, t))
    return tuple(syn)


ODD = Guard("parity", 1)

# --- pinned systems ---------------------------------------------------------------

# systems/example1.snp: a three-neuron loop whose output neuron realises
# every first interval of at least two steps
EXAMPLE1 = Spec(
    names=("n1", "n2", "n3"),
    initial=(2, 1, 1),
    rules=(
        RuleSpec(0, Guard("exact", 2), 1, 1),
        RuleSpec(0, Guard("exact", 2), 2, 1),
        RuleSpec(1, Guard("exact", 1), 1, 1),
        RuleSpec(2, Guard("exact", 1), 1, 1),
        RuleSpec(2, Guard("exact", 2), 2, 0),
    ),
    syn=((0, 1), (0, 2), (1, 0), (1, 2)),
    out=2,
)


def disjoint_union(spec: Spec, copies: int) -> Spec:
    """`copies` side-by-side copies; only the first keeps its out neuron."""
    m = spec.m
    return Spec(
        names=tuple(f"{name}_{c}" for c in range(copies) for name in spec.names),
        initial=spec.initial * copies,
        rules=tuple(
            RuleSpec(r.owner + c * m, r.guard, r.c, r.p, r.d)
            for c in range(copies)
            for r in spec.rules
        ),
        syn=tuple((a + c * m, b + c * m) for c in range(copies) for a, b in spec.syn),
        out=spec.out,
    )


def ring(m: int, delay_at: int | None = None) -> Spec:
    """A deterministic ring passing one spike around; optionally one rule
    carries a delay of 1."""
    return Spec(
        names=_names(m, "r"),
        initial=(1,) + (0,) * (m - 1),
        rules=tuple(
            RuleSpec(j, Guard("exact", 1), 1, 1, 1 if j == delay_at else 0)
            for j in range(m)
        ),
        syn=tuple((j, (j + 1) % m) for j in range(m)),
        out=0,
    )


# --- sim ----------------------------------------------------------------------------

# two rules per neuron, at least one of them spiking at any positive count
# except for an even count held by an "odd / forget 2" neuron; only the
# first pair has overlapping guards
_SIM_TEMPLATES = (
    lambda d: (RuleSpec(0, Guard("atleast", 1), 1, 1, d), RuleSpec(0, Guard("atleast", 3), 2, 1)),
    lambda d: (RuleSpec(0, ODD, 1, 1, d), RuleSpec(0, Guard("exact", 2), 2, 0)),
    lambda d: (RuleSpec(0, Guard("parity", 2), 2, 1, d), RuleSpec(0, ODD, 1, 1)),
    lambda d: (RuleSpec(0, Guard("exact", 1), 1, 1), RuleSpec(0, Guard("atleast", 2), 2, 2, d)),
)
# neurons that may hold a choice: engine steps enumerate every valid
# spiking vector, 2 ** SIM_CHOICES of them at most, so this stays fixed
SIM_CHOICES = 4


def sim_system(rng: random.Random, m: int) -> Spec:
    """A delayed system with an out neuron and two rules per neuron.

    Neurons 0 and 1 pass spikes back and forth without delay, so they
    never close and the system never halts: every run lasts its full
    step budget, whatever the seed."""
    choosers = {0, 1} | set(rng.sample(range(2, m), min(SIM_CHOICES, m) - 2))
    rules = []
    for j in range(m):
        d = 0 if j < 2 else rng.choice((0, 0, 1, 2))
        make = _SIM_TEMPLATES[0] if j in choosers else rng.choice(_SIM_TEMPLATES[1:])
        for r in make(d):
            rules.append(RuleSpec(j, r.guard, r.c, r.p, r.d))
    if not any(r.d for r in rules):
        r = rules[-2]
        rules[-2] = RuleSpec(r.owner, r.guard, r.c, r.p, 1 if r.p else 0)
    syn = _ring_syn(rng, m, 0.5)
    return Spec(
        names=_names(m),
        initial=(1, 1) + tuple(rng.randint(0, 3) for _ in range(m - 2)),
        rules=tuple(rules),
        syn=syn if (1, 0) in syn else syn + ((1, 0),),
        out=0,
    )


# (neurons, steps, systems of that size); every system runs in both modes
# and output formats under both policies; the 72-neuron class is the tier
SIM_SCHEDULE = ((16, 240, 3), (24, 150, 3), (32, 110, 3), (40, 90, 2), (72, 80, 2))


def build_sim(rng: random.Random) -> Workload:
    specs = {"ring200": ring(200)}
    queries = [Query("pinned-ring200-first200", "simulate", "ring200", steps=200)]
    for m, steps, count in SIM_SCHEDULE:
        for c in range(count):
            name = f"sim-m{m}-{c}"
            specs[name] = sim_system(rng, m)
            for mode in ("standard", "paper-trace"):
                for fmt in ("text", "json"):
                    queries.append(Query(f"sim-m{m}", "simulate", name, fmt, "first", mode, steps))
                    queries.append(
                        Query(f"sim-m{m}", "simulate", name, fmt, "random", mode, steps,
                              seed=rng.randrange(1 << 16))
                    )
    return Workload("sim", specs, queries)


# --- explore ----------------------------------------------------------------------


def branching_system(rng: random.Random, m: int, delayed: bool) -> Spec:
    """A small system with several overlapping rules per neuron."""
    rules = []
    for j in range(m):
        pool = [
            RuleSpec(j, Guard("atleast", 1), 1, 1, rng.choice((0, 1)) if delayed else 0),
            RuleSpec(j, Guard("atleast", 2), 2, 1),
            RuleSpec(j, ODD, 1, 1),
            RuleSpec(j, Guard("parity", 2), 2, rng.choice((1, 2))),
        ]
        rules += sorted(rng.sample(pool, rng.randint(2, 3)), key=pool.index)
    if delayed and not any(r.d for r in rules):
        r = rules[0]
        rules[0] = RuleSpec(r.owner, r.guard, r.c, r.p, 1)
    return Spec(
        names=_names(m),
        initial=tuple(rng.randint(1, 3) for _ in range(m)),
        rules=tuple(rules),
        syn=_ring_syn(rng, m, 0.3),
        out=0,
    )


def _tree_depth(spec: Spec, mode: str, lo: int, hi: int, max_depth: int) -> int | None:
    """A depth of at least 4 whose tree has between `lo` and `hi` nodes."""
    sizes = tree_sizes(spec, max_depth, mode, hi)
    return next((d for d, n in enumerate(sizes) if lo <= n <= hi and d >= 4), None)


def build_explore(rng: random.Random) -> Workload:
    specs = {
        "ex1": EXAMPLE1,
        "ex1x2": disjoint_union(EXAMPLE1, 2),
        "ring2": ring(2),
        "ring3d": ring(3, delay_at=1),
    }
    queries = [
        Query("pinned-ex1x2-d16", "simulate", "ex1x2", policy="exhaustive", steps=16),
        # deep deterministic rings: the tree is a single path of this depth
        Query("deep-ring", "simulate", "ring2", policy="exhaustive", steps=1100),
        Query("deep-ring", "simulate", "ring2", "json", policy="exhaustive", steps=1500),
        Query("deep-ring", "simulate", "ring3d", policy="exhaustive", steps=1200),
    ]
    for depth in range(14, 21):
        for fmt in ("text", "json"):
            queries.append(Query("ex1", "simulate", "ex1", fmt, "exhaustive", steps=depth))
    for i in range(16):  # the tier
        mode, fmt = ("standard", "paper-trace")[i % 2], ("text", "json")[i // 2 % 2]
        queries.append(Query("ex1x2-d8", "simulate", "ex1x2", fmt, "exhaustive", mode, 8))
    made = 0
    while len(queries) < 104:
        delayed = made % 2 == 1
        spec = branching_system(rng, rng.randint(2, 4), delayed)
        variants = (("standard", "text"), ("paper-trace" if delayed else "standard", "json"))
        # a tight node band keeps every query's tree work alike
        depths = [_tree_depth(spec, mode, 400, 500, 24) for mode, _fmt in variants]
        if None in depths:
            continue
        name = f"branch-{made}"
        specs[name] = spec
        made += 1
        for (mode, fmt), depth in zip(variants, depths):
            case = "branch-delayed" if delayed else "branch"
            queries.append(Query(case, "simulate", name, fmt, "exhaustive", mode, depth))
    return Workload("explore", specs, queries)


# --- reach --------------------------------------------------------------------------

_REACH_GUARDS = (Guard("atleast", 1), ODD, Guard("parity", 2), Guard("exact", 2), Guard("atleast", 2))


def reach_system(rng: random.Random, m: int, free: int) -> Spec:
    """A delay-free system with `m + free` spiking rules and a full-rank
    spiking matrix, so the sum-vector equations have `free` free variables."""
    while True:
        owners = list(range(m)) + [rng.randrange(m) for _ in range(free)]
        owners.sort()
        rules = []
        for j in owners:
            g = rng.choice(_REACH_GUARDS)
            c = rng.randint(1, g.a if g.kind == "exact" else 2)
            rules.append(RuleSpec(j, g, c, rng.randint(1, c)))
        spec = Spec(
            names=_names(m),
            initial=tuple(rng.randint(1, 4) for _ in range(m)),
            rules=tuple(rules),
            syn=_ring_syn(rng, m, 0.5),
        )
        if fraction_rank(spec.spiking()) == m:
            return spec


# (neurons, free variables, kmax): search boxes of 1,287 to 3,003 assignments;
# the tier's box holds 6,188
REACH_SHAPES = ((2, 7, 3), (2, 5, 4), (2, 6, 4), (3, 4, 4))
REACH_TIER = (2, 5, 6)


def _reach_queries(rng, case, name, spec, kmax, hit: bool, use_from: bool):
    start = None
    if use_from:
        depths = bfs_depths(spec, spec.initial, kmax)
        start = rng.choice(sorted(c for c, d in depths.items() if d >= 1) or sorted(depths))
    origin = spec.initial if start is None else start
    depths = bfs_depths(spec, origin, kmax)
    if hit:
        target = rng.choice(sorted(depths))
    else:
        base = list(rng.choice(sorted(depths)))
        while tuple(base) in depths:
            j = rng.randrange(spec.m)
            base[j] += 1 if base[j] == 0 or rng.random() < 0.5 else -1
        target = tuple(base)
    vmax = kmax if use_from and rng.random() < 0.5 else None
    fmt = rng.choice(("text", "json"))
    return Query(case, "reach", name, fmt, target=target, start=start, kmax=kmax, vmax=vmax)


def _lively(spec: Spec) -> bool:
    return bool(valid_vectors(spec, spec.initial, (1,) * spec.m))


def build_reach(rng: random.Random) -> Workload:
    pinned = reach_system(random.Random(7), 3, 7)
    specs = {"pinned-3n10r": pinned}
    queries = [_reach_queries(rng, "pinned-3n10r-k5", "pinned-3n10r", pinned, 5, True, False)]
    # the tier holds hits only, whose cost varies less; with 36 of the
    # other 88 queries hits, as many targets are reached as are missed
    plan = [(REACH_TIER, True)] * 16 + [
        (REACH_SHAPES[i % len(REACH_SHAPES)], i % 22 < 9) for i in range(88)
    ]
    for i, ((m, free, kmax), hit) in enumerate(plan):
        spec = reach_system(rng, m, free)
        while not _lively(spec):
            spec = reach_system(rng, m, free)
        name = f"reach-{i}"
        specs[name] = spec
        case = ("reach-hit" if hit else "reach-miss") + (f"-k{kmax}" if i < 16 else "")
        queries.append(_reach_queries(rng, case, name, spec, kmax, hit, i % 4 >= 2))
    return Workload("reach", specs, queries)


# --- static -------------------------------------------------------------------------

# long-lasso guards: numerical semigroups with large Frobenius numbers,
# e.g. (a^23|a^29)* is ultimately periodic only from 616 on
_LASSOS = ((3, 5), (4, 7), (5, 9), (7, 11), (11, 13), (23, 29))


def _guard_plan(rng: random.Random, total: int, lasso_share: float, long_share: float) -> list:
    """Guards for `total` rules: fixed counts of each kind, in seeded order,
    so that the compile work of a file hardly depends on the seed."""
    lassos = round(total * lasso_share)
    longs = round(lassos * long_share)
    plan = [Guard("semigroup", 0, _LASSOS[-1])] * longs
    plan += [Guard("semigroup", 0, _LASSOS[i % 5]) for i in range(lassos - longs)]
    rest = total - lassos
    mixed = (Guard("atleast", 2), Guard("parity", 2), ODD, Guard("atleast", 3))
    plan += [mixed[i % 4] for i in range(rest // 2)]
    plan += [Guard("exact", 2 + i % 5) for i in range(rest - rest // 2)]
    rng.shuffle(plan)
    return [Guard(g.kind, rng.randint(0, 3), g.gens) if g.gens else g for g in plan]


def static_system(
    rng: random.Random, m: int, per_neuron: int, lasso_share: float,
    long_share: float = 0.1, with_out: bool = True,
) -> Spec:
    """A valid system with `per_neuron` rules per neuron: repeated guard
    sources, star-union guards and some forgetting rules."""
    plan = iter(_guard_plan(rng, m * per_neuron, lasso_share, long_share))
    rules = []
    for j in range(m):
        mine: list[RuleSpec] = []
        for _ in range(per_neuron):
            g = next(plan)
            if mine and g.kind == "exact" and rng.random() < 0.3:
                mine.append(RuleSpec(j, g, g.a, 0))  # forgetting
                continue
            c = rng.randint(1, max(1, min(4, g.a or 1)))
            mine.append(RuleSpec(j, g, c, rng.randint(1, c)))
        # a forgetting amount must lie outside every sibling spiking guard
        spiking = [r for r in mine if r.p]
        rules += [r for r in mine if r.p or not any(s.guard.matches(r.c) for s in spiking)]
    syn = set()
    for j in range(m):
        for _ in range(rng.randint(1, 3)):
            t = rng.randrange(m)
            if t != j:
                syn.add((j, t))
    return Spec(
        names=_names(m),
        initial=tuple(rng.randint(0, 5) for _ in range(m)),
        rules=tuple(rules),
        syn=tuple(sorted(syn)),
        out=rng.randrange(m) if with_out else None,
    )


def inject_errors(rng: random.Random, spec: Spec, count: int) -> Spec:
    """Break `count` semantic constraints in ways that still parse."""
    rules = list(spec.rules)
    syn = list(spec.syn)
    for _ in range(count):
        kind = rng.randrange(4)
        i = rng.randrange(len(rules))
        r = rules[i]
        if kind == 0:  # spiking rule producing more than it consumes
            rules[i] = RuleSpec(r.owner, r.guard, r.c, r.c + 1, r.d)
        elif kind == 1:  # forgetting rule with a delay
            rules[i] = RuleSpec(r.owner, Guard("exact", r.c), r.c, 0, 1)
        elif kind == 2:  # forgetting rule with a non-singleton guard
            rules[i] = RuleSpec(r.owner, Guard("atleast", r.c), r.c, 0, 0)
        else:
            j = rng.randrange(spec.m)
            if (j, j) not in syn:
                syn.append((j, j))
    return Spec(spec.names, spec.initial, tuple(rules), tuple(syn), spec.out)


# (neurons, rules per neuron, files); each file gets all six command/format
# pairs, and every fourth bulk file carries validation errors.  The tier's
# files are all valid: matrices and analyze stop early on an invalid file,
# and the p90 must fall among the tier's full-cost queries
STATIC_SCHEDULE = ((50, 3, 5), (70, 3, 4), (90, 2, 4))
STATIC_TIER = (130, 3, 4)


def build_static(rng: random.Random) -> Workload:
    big = static_system(rng, 300, 3, 0.15, 0.4)
    specs = {"big-300n": big, "big-300n-bad": inject_errors(rng, big, 5)}
    queries = [
        Query("big-validate", "validate", "big-300n"),
        Query("big-validate", "validate", "big-300n-bad", "json"),
        Query("big-analyze", "analyze", "big-300n", "json"),
    ]
    f = 0
    for m, per, count in STATIC_SCHEDULE + (STATIC_TIER,):
        for _ in range(count):
            spec = static_system(rng, m, per, 0.15, with_out=f % 3 != 2)
            if f % 4 == 3 and (m, per, count) != STATIC_TIER:
                spec = inject_errors(rng, spec, rng.randint(1, 3))
            name = f"static-{f}"
            specs[name] = spec
            f += 1
            for command in ("validate", "matrices", "analyze"):
                for fmt in ("text", "json"):
                    queries.append(Query(f"static-{command}", command, name, fmt))
    return Workload("static", specs, queries)


_BUILDERS = {"sim": build_sim, "explore": build_explore, "reach": build_reach, "static": build_static}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload's files and query list; the order is shuffled by the
    seed too, so that no size class always runs first."""
    rng = random.Random(f"{name}:{seed}")
    wl = _BUILDERS[name](rng)
    rng.shuffle(wl.queries)
    return wl
