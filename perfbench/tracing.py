"""Traced in-process run: per-layer times and work counts.

Spans are recorded only by benchmark code, around calls into the public
functions of snpkit's modules.  Each wrapper is installed on the name a
caller looks up (``snpkit.model.compile_ast`` is the binding that
``make_rule`` calls, ``snpkit.cli.run_trace`` the one ``cmd_simulate``
calls, and so on) and removed afterwards, so the program's files are
untouched.  A span holds (query id, name, start, end, parent, error);
spans stay in memory and are written out when the run ends.

Per query, the untraced pass times ``cli.main(argv)`` alone; the traced
pass then runs the same list under the wrappers, and the difference is
the tracing overhead.  A few fresh interpreters that only import
``snpkit.cli`` give the start-up every end-to-end query pays on top, so
that the run can report which share of query time is work beyond it.
Work that only the benchmark does (vecmat replay, formula-versus-oracle
steps, the BFS oracle, tree statistics) runs after the query's
``cli.main`` span has closed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

import snpkit.cli as cli
import snpkit.engine as engine
import snpkit.matrices as matrices
import snpkit.model as model
import snpkit.reachability as reachability

import harness
import oracles
from specs import fraction_rank

MODULES = ("__init__", "cli", "engine", "matrices", "model", "reachability", "regex")
FORMULA_SAMPLES = 5  # states per trace timed through formula_step and operational_step
STARTUP_SAMPLES = 5  # fresh interpreters timed for cli.startup_s


def call_main(argv: list[str], main=None) -> tuple[int | None, str, str, str | None]:
    """(exit code, stdout, stderr, error) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = (main or cli.main)(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the CLI let an exception escape: a failed query
        error = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), error


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid = -1
        self.seen: dict[str, list] = defaultdict(list)  # results kept for analysis
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        rec = [self.qid, name, perf_counter(), None, self.stack[-1] if self.stack else None, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            rec[3] = perf_counter()
            self.stack.pop()

    def wrap(self, owner, attr: str, name, keep: str | None = None):
        """Replace owner.attr by a spanning wrapper; `name` may be a function
        of the call's arguments.  With `keep`, (args, kwargs, result) of each
        call is kept under that key."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            result = tracer.span(label, fn, *args, **kwargs)
            if keep:
                tracer.seen[keep].append((args, kwargs, result))
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self):
        build = "matrices.build"
        for owner, attrs in (
            (cli, ("spiking_matrix", "augmented_matrix", "production_matrix",
                   "consumption_matrix", "struc_matrix")),
            (engine, ("spiking_matrix", "augmented_matrix", "production_matrix",
                      "consumption_matrix")),
            (reachability, ("spiking_matrix",)),
        ):
            for attr in attrs:
                self.wrap(owner, attr, build)
        self.wrap(model, "compile_ast", "regex.compile", keep="compile")
        self.wrap(cli, "parse_system", "model.parse", keep="parse")
        self.wrap(cli, "validate", "model.validate")
        self.wrap(cli, "structural_report", "matrices.rank")
        self.wrap(
            cli, "run_trace",
            lambda a, kw: "engine.tree" if kw.get("policy") == "exhaustive" else "engine.trace",
            keep="run",
        )
        self.wrap(cli, "achievable_first_intervals", "engine.intervals")
        for owner in (engine, reachability):
            self.wrap(owner, "enumerate_spiking_vectors", "engine.enumerate", keep="enumerate")
        self.wrap(cli, "is_reachable", "reachability.reach", keep="reach")
        self.wrap(cli, "reach_between", "reachability.reach", keep="reach")
        self.wrap(reachability, "sum_vector_solutions", "reachability.solve", keep="solve")
        self.wrap(reachability, "decompose_sum_vector", "reachability.decompose", keep="decompose")

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for qid, name, start, end, parent, error in self.spans:
                fh.write(json.dumps(
                    {"query": qid, "name": name, "start": start, "end": end,
                     "parent": parent, "error": error}
                ) + "\n")


def _tree_stats(tree) -> tuple[int, int, int]:
    """(nodes, leaves, distinct (level, state) pairs), walked iteratively."""
    nodes = leaves = 0
    distinct = set()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes += 1
        distinct.add((node.state.k, node.state))
        if node.children:
            stack.extend(child for _rec, child in node.children)
        else:
            leaves += 1
    return nodes, leaves, len(distinct)


def _sample_steps(trace, sys, mode):
    """Up to FORMULA_SAMPLES evenly spaced (state, Sp) pairs of a trace,
    found by replaying it with operational_step."""
    records = trace.records[:-1]
    if not records:
        return []
    stride = max(1, len(records) // FORMULA_SAMPLES)
    picks = set(range(0, len(records), stride)[:FORMULA_SAMPLES])
    state = engine.initial_state(sys)
    out = []
    for k, rec in enumerate(records):
        if k in picks:
            out.append((state, rec.Sp))
        state = engine.operational_step(sys, state, rec.Sp, mode)
    return out


def startup(root: str, work: str) -> float:
    """Median wall time of a fresh interpreter importing snpkit.cli, started
    as the end-to-end run starts its queries."""
    runner = harness.Runner(root, work)
    try:
        runner.run(harness.IMPORTER)  # fills the bytecode cache
        return statistics.median(runner.run(harness.IMPORTER).wall for _ in range(STARTUP_SAMPLES))
    finally:
        runner.close()


def run(wl, oracle, paths: dict[str, str], log, spans_path: str, root: str) -> dict:
    argvs = [q.argv(paths[q.file]) for q in wl.queries]
    work = os.path.dirname(spans_path)
    os.makedirs(work, exist_ok=True)

    untraced: list[float] = []
    for argv in argvs:
        t0 = perf_counter()
        call_main(argv)
        untraced.append(perf_counter() - t0)
    start_s = startup(root, work)

    tr = Tracer()
    c = Counter()
    attempted = failed = wrong = 0
    for qid, (q, argv) in enumerate(zip(wl.queries, argvs)):
        tr.qid = qid
        tr.seen.clear()
        tr.install()
        try:
            code, out, err, error = call_main(argv, lambda a: tr.span("cli.main", cli.main, a))
        finally:
            tr.uninstall()
        tr.wrap(oracles, "bfs_oracle", "reachability.bfs")  # the oracle, off the CLI path
        attempted += 1
        if error is not None:
            failed += 1
            log(f"FAIL {q.case} {' '.join(argv)}: {error}")
        else:
            reason = oracle.check(q, paths[q.file], code, out, err)
            if reason is not None:
                failed += 1
                wrong += 1
                log(f"WRONG {q.case} {' '.join(argv)}: {reason}")
        tr.uninstall()
        c["cli.out_bytes"] += len(out.encode())
        _analyse(tr, q, c)

    tr.write(spans_path)
    metrics = _metrics(tr, c, untraced, start_s)
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _analyse(tr: Tracer, q, c: Counter):
    """Work counts of one traced query, and the benchmark-side replays."""
    seen = tr.seen
    for _a, _kw, membership in seen["compile"]:
        c["regex.lasso_states"] += membership.state_count
    for _a, _kw, sys in seen["parse"]:
        c["model.rules"] += sys.rule_count
        c["regex.distinct_guards"] += len({r.guard_src for r in sys.rules})
    for _a, _kw, vectors in seen["enumerate"]:
        c["engine.vectors"] += len(vectors)
    for _a, _kw, cert in seen["reach"]:
        c["reachability.tried"] += cert.candidates_tried
    for _a, _kw, cert in seen["decompose"]:
        c["reachability.witnesses"] += cert.reachable
    for (M, _c0, _ct, k_max), _kw, found in seen["solve"]:
        free = M.rows - fraction_rank([list(r) for r in M.data])
        c["reachability.candidates"] += len(found)
        c["reachability.free_vars"] += free
        c["reachability.search_box"] += comb(k_max * M.cols + free, free)
    sys = seen["parse"][-1][2] if seen["parse"] else None
    for args, kw, result in seen["run"]:
        if kw.get("policy") == "exhaustive":
            nodes, leaves, distinct = _tree_stats(result)
            c["engine.tree_nodes"] += nodes
            c["engine.tree_leaves"] += leaves
            c["engine.tree_distinct_states"] += distinct
            continue
        c["engine.steps"] += len(result.records) - 1
        _replay_vecmat(tr, sys, result, c)
        for state, sp in _sample_steps(result, sys, q.mode):
            tr.span("engine.formula_step", engine.formula_step, sys, state, sp, q.mode)
            tr.span("engine.oracle_step", engine.operational_step, sys, state, sp, q.mode)
    if q.command == "reach" and sys is not None and not sys.has_delays:
        start, _target, bound = q.reach_args(sys)
        c["reachability.bfs_states"] += len(reachability.reachable_set(sys, bound, start))


def _replay_vecmat(tr: Tracer, sys, trace, c: Counter):
    """Every step's products through IntMatrix.vecmat, as the engine forms
    them: Iv . PM and Sp . CM with delays, Sp . M without."""
    if sys.has_delays:
        mats = (matrices.production_matrix(sys), matrices.consumption_matrix(sys))
        pairs = [(r.Iv, r.Sp) for r in trace.records[:-1]]
    else:
        mats = (matrices.spiking_matrix(sys),)
        pairs = [(r.Sp,) for r in trace.records[:-1]]

    def replay():
        for vecs in pairs:
            for mat, v in zip(mats, vecs):
                mat.vecmat(v)

    tr.span("matrices.vecmat", replay)
    calls = len(pairs) * len(mats)
    c["matrices.vecmat_calls"] += calls
    c["matrices.vecmat_cells"] += calls * mats[0].rows * mats[0].cols


def _metrics(tr: Tracer, c: Counter, untraced: list[float], start_s: float) -> dict:
    total = defaultdict(float)
    calls = Counter()
    errors = Counter()
    child = defaultdict(float)
    for _q, name, start, end, parent, error in tr.spans:
        total[name] += end - start
        calls[name] += 1
        errors[name] += error is not None
        if parent is not None:
            child[parent] += end - start
    self_time = defaultdict(float)
    for i, (_q, name, start, end, _p, _e) in enumerate(tr.spans):
        self_time[name] += (end - start) - child[i]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    steps = c["engine.steps"]
    main_p50 = statistics.median(untraced) if untraced else 0.0
    m = {
        "regex.compile_s": (total["regex.compile"], "s"),
        "regex.compiles": (calls["regex.compile"], "count"),
        "regex.distinct_guards": (c["regex.distinct_guards"], "count"),
        "regex.lasso_states": (c["regex.lasso_states"], "count"),
        "model.parse_s": (total["model.parse"], "s"),
        "model.self_s": (self_time["model.parse"], "s"),
        "model.validate_s": (total["model.validate"], "s"),
        "model.rules": (c["model.rules"], "count"),
        "matrices.build_s": (total["matrices.build"], "s"),
        "matrices.rank_s": (total["matrices.rank"], "s"),
        "matrices.vecmat_s": (total["matrices.vecmat"], "s"),
        "matrices.vecmat_calls": (c["matrices.vecmat_calls"], "count"),
        "matrices.vecmat_cells": (c["matrices.vecmat_cells"], "computed"),
        "engine.trace_s": (total["engine.trace"], "s"),
        "engine.steps": (steps, "count"),
        "engine.step_us": (per(total["engine.trace"], steps, 1e6), "us"),
        "engine.formula_step_us": (
            per(total["engine.formula_step"], calls["engine.formula_step"], 1e6), "us"),
        "engine.oracle_step_us": (
            per(total["engine.oracle_step"], calls["engine.oracle_step"], 1e6), "us"),
        "engine.enumerate_us": (
            per(total["engine.enumerate"], calls["engine.enumerate"], 1e6), "us"),
        "engine.enumerate_calls": (calls["engine.enumerate"], "count"),
        "engine.vectors": (c["engine.vectors"], "count"),
        "engine.tree_s": (total["engine.tree"], "s"),
        "engine.tree_nodes": (c["engine.tree_nodes"], "count"),
        "engine.tree_leaves": (c["engine.tree_leaves"], "count"),
        "engine.tree_distinct_states": (c["engine.tree_distinct_states"], "count"),
        "engine.tree_dedup_ratio": (
            per(c["engine.tree_distinct_states"], c["engine.tree_nodes"]), "ratio"),
        "engine.tree_errors": (errors["engine.tree"] + errors["engine.intervals"], "count"),
        "engine.intervals_s": (total["engine.intervals"], "s"),
        "reachability.solve_s": (total["reachability.solve"], "s"),
        "reachability.candidates": (c["reachability.candidates"], "count"),
        "reachability.free_vars": (c["reachability.free_vars"], "count"),
        "reachability.search_box": (c["reachability.search_box"], "computed"),
        "reachability.reach_s": (total["reachability.reach"], "s"),
        "reachability.tried": (c["reachability.tried"], "count"),
        "reachability.witness_ratio": (
            per(c["reachability.witnesses"], c["reachability.tried"]), "ratio"),
        "reachability.decompose_s": (total["reachability.decompose"], "s"),
        "reachability.decompose_calls": (calls["reachability.decompose"], "count"),
        "reachability.bfs_s": (total["reachability.bfs"], "s"),
        "reachability.bfs_states": (c["reachability.bfs_states"], "count"),
        "cli.main_s": (total["cli.main"], "s"),
        "cli.self_s": (self_time["cli.main"], "s"),
        "cli.out_bytes": (c["cli.out_bytes"], "bytes"),
        # start-up against the untraced cli.main times: the share of the
        # workload's query time, and of its median query, beyond start-up
        "cli.startup_s": (start_s, "s"),
        "cli.work_share": (per(sum(untraced), sum(untraced) + len(untraced) * start_s), "ratio"),
        "cli.work_share_p50": (per(main_p50, main_p50 + start_s), "ratio"),
        "trace.untraced_s": (sum(untraced), "s"),
        "trace.overhead_ratio": (per(total["cli.main"], sum(untraced)) - 1.0 if untraced else 0.0, "ratio"),
        "trace.spans": (len(tr.spans), "count"),
    }
    m.update(line_counts(os.path.dirname(cli.__file__)))
    return m


def line_counts(package: str) -> dict:
    """`wc -l` of each module named in MODULES (0 once it is gone) and of
    the whole package."""
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                counts[name[:-3]] = fh.read().count(b"\n")
    out = {f"{mod.strip('_')}.lines": (counts.get(mod, 0), "lines") for mod in MODULES}
    out["snpkit.lines"] = (sum(counts.values()), "lines")
    return out
