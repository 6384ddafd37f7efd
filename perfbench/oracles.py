"""Output oracles: each query's stdout and exit code against ground truth
that shares no code with the path being timed.

* simulate: every record is replayed with ``operational_step`` from a
  state this module tracks; spiking-vector validity, the ``first``
  policy's choice, indicators, recorded status and emissions are derived
  here from the guards' own definitions.
* simulate --policy exhaustive: paths, final configurations and first
  intervals come from ``explore``, a level-by-level exploration over
  ``operational_step`` that merges equal states.
* reach: verdict and k must equal ``bfs_oracle``; a witness is replayed
  with ``is_valid_spiking_vector`` and ``operational_step``.
* validate / matrices / analyze: problems, matrices and the structural
  report are rebuilt from the generator's own numbers, with rank from a
  Fraction elimination.

``check`` returns None for an accepted output, else the reason.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from itertools import product

from snpkit.engine import SimState, is_valid_spiking_vector, operational_step
from snpkit.reachability import bfs_oracle
from snpkit.regex import nfa_matches, parse_regex

from specs import Spec, fraction_rank

EXIT_OK, EXIT_NO = 0, 1  # the README's exit codes, with 2 for usage errors
DOCUMENTED_EXITS = (0, 1, 2)

# --- reference semantics ------------------------------------------------------


def start_state(spec: Spec, config=None) -> SimState:
    return SimState(
        k=0,
        config=tuple(spec.initial if config is None else config),
        dst=(0,) * spec.n,
        st=(1,) * spec.m,
        pending=(None,) * spec.n,
    )


def _choices(spec: Spec, C, St) -> list[tuple[int, ...]]:
    out = []
    for j in range(spec.m):
        if St[j]:
            ok = tuple(i for i in spec.rules_of[j] if spec.rules[i].applicable(C[j]))
            if ok:
                out.append(ok)
    return out


def valid_vectors(spec: Spec, C, St) -> list[tuple[int, ...]]:
    """Every valid spiking vector: one applicable rule per open neuron that
    has any, sorted by support."""
    supports = sorted(tuple(sorted(c)) for c in product(*_choices(spec, C, St)))
    if supports == [()]:
        return []
    return [tuple(1 if i in s else 0 for i in range(spec.n)) for s in supports]


def first_vector(spec: Spec, C, St) -> tuple[int, ...] | None:
    """The lowest-indexed applicable rule of every open neuron."""
    picks = {c[0] for c in _choices(spec, C, St)}
    if not picks:
        return None
    return tuple(1 if i in picks else 0 for i in range(spec.n))


def recorded_dst(spec: Spec, state: SimState, Sp, mode: str) -> tuple[int, ...]:
    if mode == "standard" or state.k == 0:
        return state.dst
    return tuple(
        r.d if Sp[i] and r.d > 0 else state.dst[i] for i, r in enumerate(spec.rules)
    )


def status(spec: Spec, dst) -> tuple[int, ...]:
    closed = {spec.rules[i].owner for i, left in enumerate(dst) if left > 0}
    return tuple(0 if j in closed else 1 for j in range(spec.m))


def indicator(spec: Spec, state: SimState, Sp, mode: str) -> tuple[int, ...]:
    """Rules producing this step: undelayed firings, plus releases due now
    in standard mode."""
    due = [
        mode == "standard" and q is not None and q[0] == state.k
        for q in state.pending
    ]
    return tuple(
        1 if (Sp[i] and r.d == 0) or due[i] else 0 for i, r in enumerate(spec.rules)
    )


def emitted(spec: Spec, Iv) -> int:
    if spec.out is None:
        return 0
    return sum(r.p for i, r in enumerate(spec.rules) if Iv[i] and r.owner == spec.out)


def halted(spec: Spec, state: SimState, mode: str) -> bool:
    if not all(state.st):
        return False
    if mode == "standard" and any(q is not None for q in state.pending):
        return False
    return not _choices(spec, state.config, state.st)


def step(spec: Spec, state: SimState, Sp, mode: str) -> SimState:
    return operational_step(spec.oracle_system, state, Sp, mode)


DONE = -1  # first interval already known on this path


def explore(spec: Spec, depth: int, mode: str):
    """(paths, final configs, first intervals) of the bounded computation
    tree, level by level with equal (state, first emission) merged."""
    frontier = {(start_state(spec), None): 1}
    paths, finals, intervals = 0, set(), set()
    idle = ((0,) * spec.n,)
    for _ in range(depth):
        nxt: dict = defaultdict(int)
        for (state, e1), count in frontier.items():
            if halted(spec, state, mode):
                paths += count
                finals.add(state.config)
                continue
            for sp in valid_vectors(spec, state.config, state.st) or idle:
                e = e1
                if e1 != DONE and emitted(spec, indicator(spec, state, sp, mode)):
                    if e1 is None:
                        e = state.k
                    else:
                        intervals.add(state.k - e1)
                        e = DONE
                nxt[(step(spec, state, sp, mode), e)] += count
        frontier = nxt
    for (state, _e1), count in frontier.items():
        paths += count
        finals.add(state.config)
    return paths, finals, intervals


def tree_sizes(spec: Spec, max_depth: int, mode: str, cap: int) -> list[int]:
    """Node counts of the computation tree for depth 0, 1, ..., stopping
    once the count passes `cap`."""
    frontier = {start_state(spec): 1}
    nodes = [1]
    idle = ((0,) * spec.n,)
    for _ in range(max_depth):
        nxt: dict = defaultdict(int)
        for state, count in frontier.items():
            if not halted(spec, state, mode):
                for sp in valid_vectors(spec, state.config, state.st) or idle:
                    nxt[step(spec, state, sp, mode)] += count
        frontier = nxt
        nodes.append(nodes[-1] + sum(frontier.values()))
        if nodes[-1] > cap:
            break
    return nodes


def bfs_depths(spec: Spec, start, kmax: int) -> dict[tuple[int, ...], int]:
    """Configurations reachable from `start` within kmax steps of a
    delay-free system, with their smallest step count."""
    ones = (1,) * spec.m
    depth = {tuple(start): 0}
    frontier = [tuple(start)]
    for level in range(1, kmax + 1):
        nxt = []
        for C in frontier:
            for sp in valid_vectors(spec, C, ones):
                child = list(C)
                for i, b in enumerate(sp):
                    if b:
                        r = spec.rules[i]
                        child[r.owner] -= r.c
                        for t in spec.targets[r.owner]:
                            child[t] += r.p
                child = tuple(child)
                if child not in depth:
                    depth[child] = level
                    nxt.append(child)
        frontier = nxt
    return depth


def expected_problems(spec: Spec) -> list[tuple[str, str]]:
    """(code, location) of every semantic error, from the README's rules."""
    out = []
    for i, r in enumerate(spec.rules):
        loc = f"rule {i}"
        if r.p >= 1 and r.c < r.p:
            out.append(("consume-lt-produce", loc))
        if r.p == 0:
            if r.d:
                out.append(("forgetting-delay", loc))
            if not r.guard.is_singleton(r.c):
                out.append(("forgetting-guard", loc))
    for i, r in enumerate(spec.rules):
        if r.p == 0:
            for j in spec.rules_of[r.owner]:
                if spec.rules[j].p and spec.rules[j].guard.matches(r.c):
                    out.append(("forgetting-exclusion", f"rule {i}"))
    for a, b in spec.syn:
        if a == b:
            out.append(("self-synapse", f"syn ({a},{b})"))
    return out


def guard_probes(g) -> set[int]:
    """Counts around the guard's boundaries: its offset and, for star
    unions, the generators and the largest gap (the Frobenius number)."""
    if g.kind != "semigroup":
        return {0, g.a, g.a + 1, g.a + 2, g.a + 3}
    x, y = g.gens
    return {g.a + r for r in (0, 1, x, y, x + y - 1, x * y - x - y, x * y - x - y + 1)}


def guard_mismatch(g) -> str | None:
    """Spot-check a guard's own membership test against the NFA route."""
    ast = parse_regex(g.src)
    for n in sorted(guard_probes(g)):
        if g.matches(n) != nfa_matches(ast, n):
            return f"guard {g.src}: membership of a^{n} disagrees with nfa_matches"
    return None


def has_cycle(m: int, syn) -> bool:
    indeg = [0] * m
    adj: list[list[int]] = [[] for _ in range(m)]
    for a, b in syn:
        adj[a].append(b)
        indeg[b] += 1
    ready = [j for j in range(m) if indeg[j] == 0]
    seen = 0
    while ready:
        j = ready.pop()
        seen += 1
        for t in adj[j]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    return seen < m


def structural(spec: Spec) -> dict:
    M = spec.spiking()
    inferred = []
    for i, row in enumerate(M):
        nz = [x for x in row if x]
        if len(nz) == 1 and nz[0] < 0 and spec.rules[i].owner not in inferred:
            inferred.append(spec.rules[i].owner)
    rank = fraction_rank(spec.struc())
    return {
        "row_negative_counts": [sum(1 for x in row if x < 0) for row in M],
        "col_negative_counts": [sum(1 for row in M if row[j] < 0) for j in range(spec.m)],
        "inferred_output_neurons": inferred,
        "out_degree": [len(t) for t in spec.targets],
        "struc_rank": rank,
        "rank_cycle_hint": rank < spec.m,
        "dfs_has_cycle": has_cycle(spec.m, spec.syn),
    }


# --- output parsing -----------------------------------------------------------

_REC = re.compile(
    r"k=(\d+) C=(\(.*?\)) Sp=(\(.*?\)) Iv=(\(.*?\)) St=(\(.*?\)) "
    r"DSt=(\(.*?\)) NG=(\(.*?\)) emitted=(\d+)\Z"
)
_FIELDS = ("k", "C", "Sp", "Iv", "St", "DSt", "NG", "emitted")


def _tuple(text: str) -> tuple[int, ...]:
    """Parse a printed int tuple such as `()`, `(3,)` or `(1, -2)`."""
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a tuple: {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) > 1 and not parts[-1].strip():
        parts.pop()
    return tuple(int(x) for x in parts) if parts != [""] else ()


def parse_trace(out: str, fmt: str):
    """(records, halted or None) from simulate's stdout."""
    lines = out.rstrip("\n").split("\n")
    if fmt == "json":
        recs = []
        for line in lines:
            d = json.loads(line)
            recs.append(
                {f: d[f] if f in ("k", "emitted") else tuple(d[f]) for f in _FIELDS}
            )
        return recs, None
    recs = []
    while lines and lines[0].startswith("k="):
        mt = _REC.match(lines.pop(0))
        if not mt:
            raise ValueError("malformed record line")
        g = mt.groups()
        recs.append(
            {f: int(v) if f in ("k", "emitted") else _tuple(v) for f, v in zip(_FIELDS, g)}
        )
    if not lines or lines[0] not in ("halted: true", "halted: false"):
        raise ValueError("missing halted line")
    halt = lines.pop(0) == "halted: true"
    train = "".join(
        str(r["emitted"]) if r["emitted"] < 10 else f"[{r['emitted']}]" for r in recs[:-1]
    )
    if not lines or lines.pop(0) != f"spike train: {train or '(none)'}":
        raise ValueError("spike train does not match the records")
    steps = [r["k"] for r in recs if r["emitted"] > 0]
    if len(steps) >= 2:
        if not lines or lines.pop(0) != f"first interval: {steps[1] - steps[0]}":
            raise ValueError("first interval does not match the records")
    if lines:
        raise ValueError("trailing output")
    return recs, halt


def check_trace(spec: Spec, recs, halt, mode: str, policy: str, steps: int):
    """(reason or None, whether the final state is halting)."""
    if not recs or len(recs) - 1 > steps:
        return "wrong record count", False
    reason, stopped = _replay(spec, recs, mode, policy)
    if reason is None and len(recs) - 1 < steps and not stopped:
        reason = "trace stops before the step budget without halting"
    if reason is None and halt is not None and halt != stopped:
        reason = "halted flag differs"
    return reason, stopped


def _replay(spec: Spec, recs, mode: str, policy: str):
    state = start_state(spec)
    for k, rec in enumerate(recs[:-1]):
        if rec["k"] != k or rec["C"] != state.config:
            return f"record {k}: configuration is not the replayed one", False
        if halted(spec, state, mode):
            return f"record {k}: trace continues past a halting state", False
        Sp = rec["Sp"]
        first = first_vector(spec, state.config, state.st)
        if first is None:
            if any(Sp):
                return f"record {k}: fires with nothing applicable", False
        elif policy == "first" and Sp != first:
            return f"record {k}: not the first-policy choice", False
        elif not is_valid_spiking_vector(spec.oracle_system, state.config, state.st, Sp):
            return f"record {k}: invalid spiking vector", False
        dst = recorded_dst(spec, state, Sp, mode)
        Iv = indicator(spec, state, Sp, mode)
        if rec["DSt"] != dst or rec["St"] != status(spec, dst) or rec["Iv"] != Iv:
            return f"record {k}: delay bookkeeping differs", False
        nxt = step(spec, state, Sp, mode)
        if rec["NG"] != tuple(b - a for a, b in zip(state.config, nxt.config)):
            return f"record {k}: net gain differs from the replay", False
        if rec["emitted"] != emitted(spec, Iv):
            return f"record {k}: emission differs", False
        state = nxt
    last = recs[-1]
    zn, zm = (0,) * spec.n, (0,) * spec.m
    if (last["k"], last["C"], last["St"], last["DSt"]) != (
        state.k, state.config, state.st, state.dst
    ) or (last["Sp"], last["Iv"], last["NG"], last["emitted"]) != (zn, zn, zm, 0):
        return "terminal record differs", False
    return None, halted(spec, state, mode)


def parse_tree(out: str, fmt: str):
    if fmt == "json":
        d = json.loads(out)
        return (
            d["depth"],
            d["paths"],
            [tuple(c) for c in d["final_configs"]],
            d["first_intervals"],
        )
    lines = out.rstrip("\n").split("\n")
    mt = re.fullmatch(r"paths to depth (\d+): (\d+)", lines[0])
    fc = re.fullmatch(r"final configs: (.*)", lines[1])
    iv = re.fullmatch(r"achievable first intervals: (.*)", lines[2])
    if not (mt and fc and iv) or len(lines) != 3:
        raise ValueError("malformed tree summary")
    finals = [_tuple(x) for x in re.findall(r"\([^()]*\)", fc.group(1))]
    ivs = [] if iv.group(1) == "(none)" else [int(x) for x in iv.group(1).split(", ")]
    return int(mt.group(1)), int(mt.group(2)), finals, ivs


def parse_certificate(out: str, fmt: str) -> dict:
    if fmt == "json":
        d = json.loads(out)
        return {
            "verdict": d["verdict"],
            "k": d["k"],
            "configs": None if d["configs"] is None else [tuple(c) for c in d["configs"]],
            "spiking_vectors": None
            if d["spiking_vectors"] is None
            else [tuple(s) for s in d["spiking_vectors"]],
            "s_bar": None if d["s_bar"] is None else tuple(d["s_bar"]),
            "tried": d["candidates_tried"],
            "failures": [(tuple(f["s_bar"]), f["reason"]) for f in d["failures"]],
        }
    lines = out.rstrip("\n").split("\n")
    verdict = lines[0].removeprefix("verdict: ")
    cert = {"verdict": verdict, "k": None, "configs": None, "spiking_vectors": None, "s_bar": None}
    if verdict != "reachable":
        cert["tried"] = int(lines[1].removeprefix("candidates tried: "))
        cert["failures"] = [
            (_tuple(mt.group(1)), mt.group(2))
            for mt in map(re.compile(r"candidate (\(.*?\)): (.*)").fullmatch, lines[2:])
            if mt
        ]
        return cert
    cert["tried"], cert["failures"] = 1, []  # text omits both for a reached target
    cert["k"] = int(lines[1].removeprefix("k: "))
    cert["s_bar"] = _tuple(lines[2].removeprefix("sum vector: "))
    sps, configs = [], []
    for line in lines[3:]:
        mt = re.fullmatch(r"  step (\d+): Sp=(\(.*\)) -> C=(\(.*\))", line)
        if mt:
            sps.append(_tuple(mt.group(2)))
            configs.append(_tuple(mt.group(3)))
        elif line.startswith("  already at C="):
            configs.append(_tuple(line.removeprefix("  already at C=")))
        else:
            raise ValueError("malformed witness line")
    if sps:
        configs.insert(0, None)  # the start is not printed in text form
    cert["configs"], cert["spiking_vectors"] = configs, sps
    return cert


def check_certificate(spec: Spec, cert: dict, start, target, bound: int):
    reach, k = bfs_oracle(spec.oracle_system, tuple(target), bound, tuple(start))
    if cert["verdict"] != ("reachable" if reach else "not-reachable-within-bounds"):
        return f"verdict {cert['verdict']!r} but the oracle says reachable={reach}"
    reason = _check_refusals(spec, cert, start, target, bound, reach)
    if reason is not None or not reach:
        return reason
    sps = cert["spiking_vectors"]
    if cert["k"] != k or len(sps) != k:
        return f"k={cert['k']} but the oracle's smallest k is {k}"
    configs = cert["configs"]
    if configs[0] is not None and configs[0] != tuple(start):
        return "witness does not start at the start configuration"
    if (tuple(map(sum, zip(*sps))) if sps else (0,) * spec.n) != cert["s_bar"]:
        return "sum vector is not the sum of the spiking vectors"
    ones = (1,) * spec.m
    state = start_state(spec, start)
    for i, sp in enumerate(sps):
        if not is_valid_spiking_vector(spec.oracle_system, state.config, ones, sp):
            return f"witness step {i} fires an invalid spiking vector"
        state = step(spec, state, sp, "standard")
        if configs[i + 1] != state.config:
            return f"witness step {i} lands on a different configuration"
    if state.config != tuple(target):
        return "witness does not end at the target"
    return None


REFUSALS = ("not a valid sum vector", "not a valid spiking vector", "bound exhausted")


def _check_refusals(spec: Spec, cert: dict, start, target, bound: int, reach: bool):
    """Every refused candidate is a distinct nonnegative solution of
    s . M = target - start within the sum bound, listed smallest first;
    each tried candidate is refused, bar the witness's."""
    fails = cert["failures"]
    if not (cert["tried"] == len(fails) or reach and cert["tried"] > len(fails)):
        return "candidates tried does not match the refusals listed"
    M = spec.spiking()
    delta = [t - s for s, t in zip(start, target)]
    sums = []
    for s_bar, reason in fails:
        if reason not in REFUSALS:
            return f"unknown refusal {reason!r}"
        if len(s_bar) != spec.n or min(s_bar, default=0) < 0 or sum(s_bar) > bound * spec.m:
            return f"candidate {s_bar} is out of range"
        if [sum(s * row[j] for s, row in zip(s_bar, M)) for j in range(spec.m)] != delta:
            return f"candidate {s_bar} does not solve s . M = target - start"
        sums.append((sum(s_bar), s_bar))
    if sums != sorted(set(sums)):
        return "candidates are not distinct or not in (sum, lex) order"
    return None


def parse_matrices(out: str, fmt: str) -> dict:
    if fmt == "json":
        blocks = {}
        for name, blob in json.loads(out).items():
            if blob is not None:
                rows = blob["data"]
                if blob["rows"] != len(rows) or any(len(r) != blob["cols"] for r in rows):
                    raise ValueError(f"{name}: shape differs from its data")
                blob = [list(r) for r in rows]
            blocks[name] = blob
        return blocks
    blocks = {}
    for chunk in out.rstrip("\n").split("\n\n"):
        head, *rows = chunk.split("\n")
        name, _, rest = head.partition(":")
        if rest == " (no out neuron)":
            blocks[name] = None
        elif rows == ["(empty)"]:
            blocks[name] = []
        else:
            blocks[name] = [[int(x) for x in row.split()] for row in rows]
    return blocks


def parse_structural(out: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(out)
    fields = dict(line.split(": ", 1) for line in out.rstrip("\n").split("\n"))
    rank, _, _m = fields["struc rank"].partition(" of ")
    return {
        "row_negative_counts": list(_tuple(fields["row negative counts"])),
        "col_negative_counts": list(_tuple(fields["col negative counts"])),
        "inferred_output_neurons": list(_tuple(fields["inferred output neurons"])),
        "out_degree": list(_tuple(fields["out degree"])),
        "struc_rank": int(rank),
        "rank_cycle_hint": fields["rank cycle hint"] == "true",
        "dfs_has_cycle": fields["dfs has cycle"] == "true",
    }


_PROBLEM = re.compile(r"(.*): error (\S+) at (.*?): .*")


def parse_problems(text: str, path: str) -> list[tuple[str, str]]:
    out = []
    for line in text.rstrip("\n").split("\n") if text.strip() else []:
        mt = _PROBLEM.fullmatch(line)
        if not mt or mt.group(1) != path:
            raise ValueError(f"malformed problem line {line!r}")
        out.append((mt.group(2), mt.group(3)))
    return out


# --- dispatch -------------------------------------------------------------------


class Oracle:
    """Checks the outputs of one workload's queries; expectations are
    computed once per distinct question and shared across output formats."""

    def __init__(self, specs: dict[str, Spec]):
        self.specs = specs
        self._memo: dict = {}

    def _once(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def expected_exit(self, q) -> int:
        spec = self.specs[q.file]
        if q.command in ("validate", "matrices", "analyze"):
            return EXIT_NO if self._problems(q.file) else EXIT_OK
        if q.command == "reach":
            start, target, bound = q.reach_args(spec)
            reach = target in self._once(
                ("bfs", q.file, start, bound), lambda: bfs_depths(spec, start, bound)
            )
            return EXIT_OK if reach else EXIT_NO
        return EXIT_OK

    def _problems(self, file):
        return self._once(("problems", file), lambda: expected_problems(self.specs[file]))

    def check(self, q, path: str, code: int, out: str, err: str) -> str | None:
        """None when the output is right, else the reason it is wrong."""
        want = self.expected_exit(q)
        if code != want:
            return f"exit {code}, expected {want}"
        try:
            return self._check(q, path, code, out, err)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output: {exc}"

    def _check(self, q, path, code, out, err):
        spec = self.specs[q.file]
        fmt = q.fmt
        if q.command in ("validate", "matrices", "analyze"):
            # the expected problems rest on the guards' own membership tests
            for g in {r.guard for r in spec.rules}:
                reason = self._once(("guard", g), lambda: guard_mismatch(g))
                if reason:
                    return reason
        if q.command == "validate":
            problems = self._problems(q.file)
            if fmt == "json":
                d = json.loads(out)
                got = [(p["code"], p["location"]) for p in d["problems"]]
                if d["ok"] != (not problems):
                    return "ok flag differs"
            else:
                if not problems:
                    want = f"{path}: ok ({spec.m} neurons, {spec.n} rules)\n"
                    return None if out == want else "ok line differs"
                got = parse_problems(out, path)
            return None if sorted(got) == sorted(problems) else "problems differ"
        if code == EXIT_NO and q.command in ("matrices", "analyze"):
            if out:
                return "output printed for an invalid system"
            got = parse_problems(err, path)
            return None if sorted(got) == sorted(self._problems(q.file)) else "problems differ"
        if q.command == "matrices":
            want = {
                "M": spec.spiking(),
                "augmented": spec.augmented(),
                "PM": spec.production(),
                "CM": spec.consumption(),
                "struc": spec.struc(),
            }
            return None if parse_matrices(out, fmt) == want else "matrices differ"
        if q.command == "analyze":
            want = self._once(("structural", q.file), lambda: structural(spec))
            return None if parse_structural(out, fmt) == want else "structural report differs"
        if q.command == "simulate":
            if q.policy == "exhaustive":
                paths, finals, ivs = self._once(
                    ("tree", q.file, q.steps, q.mode),
                    lambda: explore(spec, q.steps, q.mode),
                )
                got = parse_tree(out, fmt)
                want = (q.steps, paths, sorted(finals), sorted(ivs))
                return None if got == want else "tree summary differs"
            recs, halt = parse_trace(out, fmt)
            flat = [tuple(r[f] for f in _FIELDS) for r in recs]
            # text and JSON of one run must agree; the replay is done once
            key = ("trace", q.file, q.policy, q.mode, q.steps, q.seed)
            if key in self._memo:
                seen, stopped = self._memo[key]
                if flat != seen:
                    return "records differ from the other output format"
                return None if halt in (None, stopped) else "halted flag differs"
            reason, stopped = check_trace(spec, recs, halt, q.mode, q.policy, q.steps)
            if reason is None:
                self._memo[key] = (flat, stopped)
            return reason
        if q.command == "reach":
            start, target, bound = q.reach_args(spec)
            return check_certificate(spec, parse_certificate(out, fmt), start, target, bound)
        return f"no oracle for {q.command}"
