"""Tests of the benchmark itself: determinism, oracles, dependencies.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import oracles  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def _materialise(wl, tmp_path):
    paths = {}
    for name, spec in wl.specs.items():
        p = tmp_path / f"{name}.snp"
        p.write_text(spec.text())
        paths[name] = str(p)
    return paths


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_queries(name):
    a, b, c = (workloads.build(name, s) for s in (5, 5, 6))
    assert a.queries == b.queries
    assert {k: s.text() for k, s in a.specs.items()} == {k: s.text() for k, s in b.specs.items()}
    assert a.queries != c.queries
    assert len(a.queries) >= 100


def _first(wl, **fields):
    return next(
        q for q in wl.queries
        if all(getattr(q, k) == v for k, v in fields.items()) and not q.case.startswith(("pinned", "big", "deep"))
    )


def _corrupt_number(text: str, pick=min) -> str:
    """Bump the first (or, with pick=max, the last) digit in the output."""
    i = pick(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


CASES = [
    ("sim", dict(command="simulate", policy="first", fmt="text")),
    ("sim", dict(command="simulate", policy="random", fmt="json")),
    ("explore", dict(command="simulate", fmt="text")),
    ("explore", dict(command="simulate", fmt="json")),
    ("reach", dict(command="reach", case="reach-hit", fmt="text")),
    ("reach", dict(command="reach", case="reach-hit", fmt="json"), max),
    ("reach", dict(command="reach", case="reach-miss")),
    ("static", dict(command="validate", fmt="json")),
    ("static", dict(command="matrices", fmt="text")),
    ("static", dict(command="matrices", fmt="json")),
    ("static", dict(command="analyze", fmt="text")),
]


@pytest.mark.parametrize("name,fields,pick", [c if len(c) == 3 else (*c, min) for c in CASES])
def test_oracle_accepts_real_and_rejects_corrupted_output(name, fields, pick, tmp_path):
    wl = workloads.build(name, 3)
    paths = _materialise(wl, tmp_path)
    q = _first(wl, **fields)
    path = paths[q.file]
    code, out, err, error = tracing.call_main(q.argv(path))
    assert error is None
    assert oracles.Oracle(wl.specs).check(q, path, code, out, err) is None
    bad = oracles.Oracle(wl.specs)
    if any(ch.isdigit() for ch in out):
        assert bad.check(q, path, code, _corrupt_number(out, pick), err) is not None
    assert bad.check(q, path, 1 - code if code in (0, 1) else 0, out, err) is not None


def test_oracle_rejects_a_wrong_verdict(tmp_path):
    wl = workloads.build("reach", 3)
    paths = _materialise(wl, tmp_path)
    q = _first(wl, case="reach-miss", fmt="json")
    code, out, err, _ = tracing.call_main(q.argv(paths[q.file]))
    blob = json.loads(out)
    blob["verdict"] = "reachable"
    assert oracles.Oracle(wl.specs).check(q, paths[q.file], 0, json.dumps(blob), err) is not None


def test_trace_oracle_catches_a_changed_spiking_choice(tmp_path):
    wl = workloads.build("sim", 3)
    paths = _materialise(wl, tmp_path)
    q = _first(wl, policy="first", fmt="json")
    code, out, err, _ = tracing.call_main(q.argv(paths[q.file]))
    lines = out.splitlines()
    rec = json.loads(lines[1])
    rec["Sp"] = [1 - b for b in rec["Sp"]]
    lines[1] = json.dumps(rec)
    assert oracles.Oracle(wl.specs).check(q, paths[q.file], code, "\n".join(lines), err)


def test_guard_spot_check_catches_a_wrong_membership_test():
    g = specs.Guard("semigroup", 0, (3, 5))
    assert oracles.guard_mismatch(g) is None
    wrong = types.SimpleNamespace(
        src=g.src, kind=g.kind, a=g.a, gens=g.gens, matches=specs.Guard("semigroup", 0, (3, 4)).matches
    )
    assert oracles.guard_mismatch(wrong) is not None


def test_exploration_oracle_matches_known_example1_census():
    paths, finals, intervals = oracles.explore(workloads.EXAMPLE1, 10, "standard")
    assert paths == 31
    assert sorted(intervals) == list(range(2, 10))
    assert len(finals) == 7


def test_traced_counts_repeat(tmp_path):
    counts = []
    for _ in range(2):
        wl = workloads.build("explore", 4)
        wl.queries = [q for q in wl.queries if not q.case.startswith(("pinned", "deep"))][:12]
        paths = _materialise(wl, tmp_path)
        res = tracing.run(wl, oracles.Oracle(wl.specs), paths, lambda _l: None,
                          str(tmp_path / "s.jsonl"), str(ROOT))
        assert res["correct"] and res["failed"] == 0
        assert {k: unit for k, (_v, unit) in res["metrics"].items()} == _declared("per_layer")
        timed = ("trace.overhead_ratio", "cli.work_share", "cli.work_share_p50")
        counts.append({k: v for k, (v, unit) in res["metrics"].items() if unit != "s" and unit != "us"
                       and k not in timed})
    assert counts[0] == counts[1]
    assert counts[0]["engine.tree_nodes"] > 0


def test_end_to_end_run_reports_the_declared_metrics(tmp_path):
    wl = workloads.build("static", 1)
    wl.queries = [q for q in wl.queries if not q.case.startswith("big")][:3]
    paths = _materialise(wl, tmp_path)
    res = harness.run(wl, oracles.Oracle(wl.specs), paths, str(ROOT), str(tmp_path), 0, lambda _l: None)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 3, 0)
    assert {k: unit for k, (_v, unit) in res["metrics"].items()} == _declared("end_to_end")
    assert all(v > 0 for v, _unit in res["metrics"].values())


def test_harness_imports_only_stdlib_and_snpkit():
    local = {p.stem for p in HERE.glob("*.py")}
    for p in HERE.glob("*.py"):
        if p.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top in local or top == "snpkit", (p.name, name)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
