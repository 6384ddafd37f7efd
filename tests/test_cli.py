"""Command-line interface: exit codes, golden output, schema conformance.

Most tests drive cli.main in-process and capture stdout; subprocess
tests cover the module entry point end to end and what importing the CLI
loads.  Every JSON output is validated against the schemas shipped under
docs/schemas.
"""

import json
import os
import random
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPO_ROOT, SYSTEMS_DIR, TESTS_DIR
from snpkit.cli import _json, json_default, main
from snpkit.model import Record, parse_system
from snpkit.reachability import bfs_oracle

EXAMPLE1 = str(SYSTEMS_DIR / "example1.snp")
EXAMPLE3 = str(SYSTEMS_DIR / "example3.snp")
SCHEMA_DIR = REPO_ROOT / "docs" / "schemas"


def schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- schemas themselves ---------------------------------------------------------


def test_shipped_schemas_are_well_formed():
    names = sorted(p.stem for p in SCHEMA_DIR.glob("*.schema.json"))
    assert names == [
        "certificate.schema",
        "matrices.schema",
        "matrix.schema",
        "structural-report.schema",
        "trace-record.schema",
        "tree-summary.schema",
        "validation-report.schema",
    ]
    for p in SCHEMA_DIR.glob("*.schema.json"):
        jsonschema.Draft202012Validator.check_schema(json.loads(p.read_text()))


# --- validate -------------------------------------------------------------------


def test_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate", EXAMPLE1)
    assert code == 0
    assert "ok" in out
    assert "3 neurons, 5 rules" in out


def test_validate_json(capsys):
    code, out, _ = run_cli(capsys, "validate", EXAMPLE1, "--format", "json")
    assert code == 0
    blob = json.loads(out)
    jsonschema.validate(blob, schema("validation-report"))
    assert blob == {"ok": True, "problems": []}


def test_validate_semantic_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.snp"
    bad.write_text(
        "neuron a spikes=1\nneuron b spikes=0\n"
        "rule a E=a c=1 p=2 d=0\nsyn a b\n"
    )
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "consume-lt-produce" in out
    code, out, _ = run_cli(capsys, "validate", str(bad), "--format", "json")
    blob = json.loads(out)
    jsonschema.validate(blob, schema("validation-report"))
    assert not blob["ok"]
    assert blob["problems"][0]["code"] == "consume-lt-produce"


def test_parse_error_exit_2_with_line_number(capsys, tmp_path):
    bad = tmp_path / "mangled.snp"
    bad.write_text("neuron a spikes=1\nrule a E=a( c=1 p=1 d=0\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "line 2" in err


def test_deeply_nested_guard_exit_2_without_traceback(capsys, tmp_path):
    deep = tmp_path / "deep.snp"
    guard = "(" * 300 + "a" + ")" * 300 + "*"
    deep.write_text(f"neuron a spikes=1\nrule a E={guard} c=1 p=1 d=0\n")
    code, _, err = run_cli(capsys, "validate", str(deep))
    assert code == 2
    assert err.startswith("snpkit: error:")
    assert "line 2" in err
    assert "Traceback" not in err


def test_huge_bare_literal_guard_validates(capsys, tmp_path):
    # a^k's lasso holds the one accepted count, not k booleans
    big = tmp_path / "big.snp"
    big.write_text(f"neuron a spikes=1\nrule a E=a^{10**20 - 1} c=1 p=1 d=0\n")
    code, out, err = run_cli(capsys, "validate", str(big))
    assert code == 0
    assert out.startswith(f"{big}: ok")
    assert "Traceback" not in err


def test_huge_literal_inside_star_exit_2_without_traceback(capsys, tmp_path):
    # inside a star the literal would need one position per a, so the
    # guard is refused before its walk instead of running out of memory
    big = tmp_path / "big.snp"
    big.write_text(f"neuron a spikes=1\nrule a E=(a^{10**20 - 1})* c=1 p=1 d=0\n")
    code, out, err = run_cli(capsys, "validate", str(big))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"snpkit: error: {big}: line 2: bad guard regex: compiling would store "
        "more than 1000000 positions (offset 0)"
    ]


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-file.snp")
    assert code == 2
    assert "no-such-file.snp" in err


def test_non_utf8_file_exit_2_without_traceback(capsys, tmp_path):
    bad = tmp_path / "latin.snp"
    bad.write_bytes(b"neuron a spikes=1\n\xff\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"snpkit: error: cannot read {bad}: "
        "not UTF-8 text (invalid start byte at byte 18)"
    ]


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("neuron a spikes=²\n", ["validate"], "line 1: spikes must be"),
        (
            "neuron a spikes=1\nrule a E=a^² c=1 p=1 d=0\n",
            ["validate"],
            "line 2: bad guard regex: expected an unsigned integer (offset 2)",
        ),
        (
            f"neuron a spikes=1\nrule a c={'9' * 5000} p=1 d=0\n",
            ["validate"],
            "line 2: c, p and d have too many digits",
        ),
        (None, ["reach", "--target", "²,0,0"], "--target wants"),
    ],
    ids=["superscript-spikes", "superscript-guard", "long-c", "superscript-target"],
)
def test_numbers_int_refuses_exit_2_without_traceback(
    capsys, tmp_path, text, argv, message
):
    # str.isdigit accepts superscript digits and any length; int() does not
    path = EXAMPLE1
    if text is not None:
        path = tmp_path / "num.snp"
        path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("snpkit: error:") and message in err
    assert "Traceback" not in err


def test_invalid_system_blocks_other_commands(capsys, tmp_path):
    bad = tmp_path / "bad.snp"
    bad.write_text("neuron a spikes=1\nrule a E=a c=0 p=0 d=0\n")
    code, out, err = run_cli(capsys, "matrices", str(bad))
    assert code == 1
    assert "consume-zero" in err
    assert out == ""


# --- matrices -------------------------------------------------------------------

MATRICES_TEXT = """\
M:
-1  1  1
-2  1  1
 1 -1  1
 0  0 -1
 0  0 -2

augmented:
-1  1  1  0
-2  1  1  0
 1 -1  1  0
 0  0 -1  1
 0  0 -2  0

PM:
0 1 1
0 1 1
1 0 1
0 0 0
0 0 0

CM:
1 0 0
2 0 0
0 1 0
0 0 1
0 0 2

struc:
-1  1  1
 1 -1  1
 0  0 -1

"""


def test_matrices_text_golden(capsys):
    code, out, _ = run_cli(capsys, "matrices", EXAMPLE1)
    assert code == 0
    assert out == MATRICES_TEXT


def test_matrices_json(capsys):
    code, out, _ = run_cli(capsys, "matrices", EXAMPLE1, "--format", "json")
    assert code == 0
    blob = json.loads(out)
    jsonschema.validate(blob, schema("matrices"))
    assert blob["M"]["data"] == [
        [-1, 1, 1],
        [-2, 1, 1],
        [1, -1, 1],
        [0, 0, -1],
        [0, 0, -2],
    ]
    assert blob["M"]["rows"] == 5 and blob["M"]["cols"] == 3
    assert blob["augmented"]["data"][3] == [0, 0, -1, 1]
    for name in ("M", "PM", "CM"):
        assert blob[name]["rows"] == 5
    assert blob["struc"]["rows"] == blob["struc"]["cols"] == 3


def test_matrices_json_no_out_neuron(capsys):
    code, out, _ = run_cli(capsys, "matrices", EXAMPLE3, "--format", "json")
    assert code == 0
    blob = json.loads(out)
    jsonschema.validate(blob, schema("matrices"))
    assert blob["augmented"] is None
    assert blob["M"]["data"] == [
        [-1, 1, 0],
        [1, -1, 1],
        [0, -2, 0],
        [0, 1, -1],
    ]


def test_matrices_output_deterministic(capsys):
    runs = [
        run_cli(capsys, "matrices", EXAMPLE1, "--format", "json")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# --- simulate -------------------------------------------------------------------


def test_simulate_paper_trace_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        EXAMPLE3,
        "--steps",
        "5",
        "--mode",
        "paper-trace",
        "--policy",
        "first",
        "--format",
        "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    sch = schema("trace-record")
    for r in records:
        jsonschema.validate(r, sch)
    assert [tuple(r["C"]) for r in records] == [
        (1, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
        (0, 1, 0),
        (1, 0, 1),
        (0, 1, 0),
    ]
    assert [r["k"] for r in records] == list(range(6))
    # terminal record carries no action
    assert records[-1]["Sp"] == [0, 0, 0, 0]


def test_simulate_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", EXAMPLE1, "--steps", "10", "--policy", "first"
    )
    assert code == 0
    # the lowest-indexed choice loops forever, so the budget runs out
    assert "halted: false" in out
    assert "spike train: 1000000000" in out
    assert out.startswith("k=0 C=(2, 1, 1)")


def test_simulate_seed_required_for_random(capsys):
    code, _, err = run_cli(
        capsys, "simulate", EXAMPLE1, "--policy", "random"
    )
    assert code == 2
    assert "--seed" in err


def test_simulate_seed_forbidden_otherwise(capsys):
    code, _, err = run_cli(
        capsys, "simulate", EXAMPLE1, "--policy", "first", "--seed", "7"
    )
    assert code == 2


def test_simulate_random_deterministic_per_seed(capsys):
    first = run_cli(
        capsys, "simulate", EXAMPLE1, "--policy", "random", "--seed", "11",
        "--steps", "8", "--format", "json",
    )
    second = run_cli(
        capsys, "simulate", EXAMPLE1, "--policy", "random", "--seed", "11",
        "--steps", "8", "--format", "json",
    )
    assert first == second
    assert first[0] == 0


def test_simulate_exhaustive_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        EXAMPLE1,
        "--steps",
        "10",
        "--policy",
        "exhaustive",
        "--format",
        "json",
    )
    assert code == 0
    blob = json.loads(out)
    jsonschema.validate(blob, schema("tree-summary"))
    assert blob["depth"] == 10
    assert blob["first_intervals"] == [2, 3, 4, 5, 6, 7, 8, 9]
    assert [1, 0, 0] in blob["final_configs"]


# --- analyze --------------------------------------------------------------------


def test_analyze_json_golden(capsys):
    code, out, _ = run_cli(capsys, "analyze", EXAMPLE1, "--format", "json")
    assert code == 0
    blob = json.loads(out)
    jsonschema.validate(blob, schema("structural-report"))
    assert blob == {
        "row_negative_counts": [1, 1, 1, 1, 1],
        "col_negative_counts": [2, 1, 2],
        "inferred_output_neurons": [2],
        "out_degree": [2, 2, 0],
        "struc_rank": 2,
        "rank_cycle_hint": True,
        "dfs_has_cycle": True,
    }


def test_analyze_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", EXAMPLE1)
    assert code == 0
    assert "struc rank: 2 of 3" in out
    assert "rank cycle hint: true" in out


# --- reach ----------------------------------------------------------------------


def test_reach_reachable_exit_0(capsys):
    code, out, _ = run_cli(
        capsys, "reach", EXAMPLE1, "--target", "2,1,2", "--kmax", "2"
    )
    assert code == 0
    assert "verdict: reachable" in out
    assert "k: 1" in out


def test_reach_unreachable_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "reach", EXAMPLE1, "--target", "2,0,2", "--kmax", "6"
    )
    assert code == 1
    assert "verdict: not-reachable-within-bounds" in out
    assert "candidates tried: 17" in out


def test_reach_json_schema(capsys):
    for target, expect in (("2,1,2", 0), ("2,0,2", 1)):
        code, out, _ = run_cli(
            capsys, "reach", EXAMPLE1, "--target", target, "--kmax", "4",
            "--format", "json",
        )
        assert code == expect
        blob = json.loads(out)
        jsonschema.validate(blob, schema("certificate"))


def test_reach_from_flag(capsys):
    code, out, _ = run_cli(
        capsys, "reach", EXAMPLE1, "--target", "1,1,2",
        "--from", "2,1,2", "--vmax", "2",
    )
    assert code == 0
    assert "k: 1" in out
    assert "(0, 1, 1, 0, 1)" in out


def test_reach_target_length_mismatch_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "reach", EXAMPLE1, "--target", "1,2", "--kmax", "2"
    )
    assert code == 2
    assert "3 neurons" in err


def test_reach_malformed_target_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "reach", EXAMPLE1, "--target", "2,x,1", "--kmax", "2"
    )
    assert code == 2
    assert "--target" in err
    code, _, err = run_cli(
        capsys, "reach", EXAMPLE1, "--target", "2,-1,1", "--kmax", "2"
    )
    assert code == 2


def test_reach_many_free_variables_answers(capsys, tmp_path):
    # more rules on one neuron than the recursion limit, so more free
    # variables in the candidate walk than a recursive walk could nest
    n = sys.getrecursionlimit() + 100
    rules = "".join(f"rule n1 E=a^{k} c={k} p=1 d=0\n" for k in range(1, n + 1))
    path = tmp_path / "many.snp"
    path.write_text("neuron n1 spikes=2\nneuron n2 spikes=0\n" + rules + "syn n1 n2\n")
    system = parse_system(path.read_text())
    cases = (
        ("1,1", 1, "verdict: not-reachable-within-bounds", (False, None)),
        ("0,1", 0, "verdict: reachable", (True, 1)),
    )
    for target, exit_code, verdict, oracle in cases:
        code, out, err = run_cli(capsys, "reach", str(path), "--target", target, "--kmax", "1")
        assert code == exit_code
        assert "Traceback" not in out + err
        lines = out.splitlines()
        assert lines[0] == verdict
        assert ("k: 1" in lines) == (exit_code == 0)
        assert bfs_oracle(system, tuple(map(int, target.split(","))), 1) == oracle


def test_reach_delayed_system_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "reach", EXAMPLE3, "--target", "1,0,1", "--kmax", "2"
    )
    assert code == 2
    assert "delay-free" in err


def test_reach_json_deterministic(capsys):
    runs = [
        run_cli(
            capsys, "reach", EXAMPLE1, "--target", "2,0,2", "--kmax", "5",
            "--format", "json",
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# --- pinned JSON bytes ------------------------------------------------------------

# One query per JSON path; tests/golden/<name>.out holds its exact stdout.
# The parsed-JSON tests above would miss a change of key order, spacing or
# indentation, which these catch.
GOLDEN_DIR = TESTS_DIR / "golden"
JSON_GOLDENS = {
    "validate-ok": (0, ["validate", EXAMPLE1]),
    "validate-problems": (1, ["validate", str(GOLDEN_DIR / "bad.snp")]),
    "matrices-out": (0, ["matrices", EXAMPLE1]),
    "matrices-no-out": (0, ["matrices", EXAMPLE3]),
    "simulate-trace": (0, ["simulate", EXAMPLE3, "--steps", "5", "--mode", "paper-trace"]),
    "simulate-exhaustive": (0, ["simulate", EXAMPLE1, "--steps", "6", "--policy", "exhaustive"]),
    "analyze": (0, ["analyze", EXAMPLE1]),
    "reach-hit": (0, ["reach", EXAMPLE1, "--target", "2,1,2", "--kmax", "2"]),
    "reach-miss": (1, ["reach", EXAMPLE1, "--target", "2,0,2", "--kmax", "2"]),
}


@pytest.mark.parametrize("name", list(JSON_GOLDENS))
def test_json_stdout_bytes_pinned(capsys, name):
    expect_code, argv = JSON_GOLDENS[name]
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (expect_code, "")
    assert out == (GOLDEN_DIR / f"{name}.out").read_text()


def test_json_hook_refuses_non_records():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json.dumps({1}, default=json_default)


# --- the streaming JSON emitter -----------------------------------------------------


class Pair(Record):
    left: object
    right: object


def dumps(obj) -> str:
    """The encoding cli._json must reproduce piece by piece (reference)."""
    return json.dumps(obj, indent=2, sort_keys=True, default=json_default)


def emitted(obj) -> str:
    return "".join(_json(obj, "\n"))


ints = st.one_of(st.integers(), st.integers(min_value=-(2**200), max_value=2**200))
strings = st.one_of(st.text(), st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600a'))
leaves = st.one_of(st.none(), st.booleans(), ints, strings)
json_values = st.recursive(
    leaves | st.lists(st.one_of(ints, st.booleans())),  # int rows, bool beside 1 and 0
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(strings, children, max_size=5),
        st.builds(Pair, children, children),
    ),
    max_leaves=40,
)


@given(obj=json_values)
@settings(max_examples=500, deadline=None)
def test_emitter_matches_json_dumps(obj):
    assert emitted(obj) == dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [[], {}, (), [[]], {"a": {}}, [True, 1, False, 0], (2**64, -(2**70)), Pair(None, [])],
    ids=["list", "dict", "tuple", "nested-list", "nested-dict", "bools", "bigints", "record"],
)
def test_emitter_edge_cases(obj):
    assert emitted(obj) == dumps(obj)


def test_emitter_refuses_floats_and_foreign_types():
    with pytest.raises(TypeError, match="float"):
        emitted({"rows": [1, 2.5]})
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        emitted([1, {1}])


def tier_system(rng: random.Random, neurons: int, rules_per_neuron: int) -> str:
    """A valid system text the size of the benchmark's largest static tier."""
    names = [f"n{j}" for j in range(neurons)]
    lines = [f"neuron {name} spikes={rng.randint(0, 5)}" for name in names]
    for name in names:
        for c in range(1, rules_per_neuron + 1):
            lines.append(f"rule {name} E=a^{c} c={c} p={rng.randint(1, c)} d=0")
    for j, name in enumerate(names):
        targets = {rng.randrange(neurons) for _ in range(3)} - {j}
        lines += [f"syn {name} {names[t]}" for t in sorted(targets)]
    lines.append(f"out {names[0]}")
    return "\n".join(lines) + "\n"


def test_matrices_json_streams(tmp_path, monkeypatch):
    # the JSON is written in pieces: no copy of the whole output is held,
    # so the traced peak stays under twice the bytes printed (a single
    # json.dumps string held about eight times them)
    path = tmp_path / "tier.snp"
    path.write_text(tier_system(random.Random(130), 130, 3))
    out = tmp_path / "out.json"
    with open(out, "w") as fh:
        monkeypatch.setattr(sys, "stdout", fh)
        tracemalloc.start()
        try:
            code = main(["matrices", str(path), "--format", "json"])
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        monkeypatch.undo()
    printed = out.stat().st_size
    assert code == 0
    assert printed > 2_000_000
    assert peak < 2 * printed, (peak, printed)
    blocks = json.loads(out.read_text())
    assert (blocks["M"]["rows"], blocks["M"]["cols"]) == (390, 130)


# --- flag plumbing ----------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", EXAMPLE1])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--policy", "random"], "policy 'random' requires --seed"),
        (["simulate", "--seed", "3"], "--seed only makes sense with --policy random"),
        (["simulate", "--steps", "-1"], "--steps must be nonnegative"),
        (["reach", "--target", "1", "--kmax", "-1"], "--kmax must be nonnegative"),
        (["reach", "--target", "1", "--vmax", "-1"], "--vmax must be nonnegative"),
        (["reach", "--target", "1", "--vmax", "2"], "--vmax only makes sense with --from"),
        (
            ["reach", "--target", "1,x"],
            "--target wants comma-separated nonnegative integers, got '1,x'",
        ),
        (
            ["reach", "--target", "1", "--from", "x"],
            "--from wants comma-separated nonnegative integers, got 'x'",
        ),
    ],
    ids=[
        "random-no-seed", "seed-not-random", "steps", "kmax", "vmax",
        "vmax-without-from", "target", "from",
    ],
)
def test_flag_errors_come_before_validation(capsys, tmp_path, argv, message):
    bad = tmp_path / "bad.snp"
    bad.write_text("neuron a spikes=1\nrule a E=a c=0 p=0 d=0\n")
    code, out, err = run_cli(capsys, argv[0], str(bad), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"snpkit: error: {message}\n"


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "snpkit.cli",
            "simulate",
            EXAMPLE3,
            "--steps",
            "5",
            "--mode",
            "paper-trace",
        ],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0
    assert "k=5 C=(0, 1, 0)" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", EXAMPLE1, "--steps", "2000", "--format", "json"],
        ["validate", EXAMPLE1],
    ],
)
def test_closed_stdout_exits_2_without_traceback(argv):
    # as in `snpkit simulate ... | head -1`: the reader is gone before the
    # output is written, and that is not a validation failure (exit 1)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "snpkit.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(REPO_ROOT),
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "snpkit: error: output closed early (broken pipe)\n"


LADDER = "(" + "|".join(f"a^{k}" for k in range(1, 401)) + ")*"  # 80,200 positions
COPRIME = "(a^31)*|(a^29)*|(a^23)*|(a^19)*|(a^17)*"  # period 6.7 million


def limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "guard, argv",
    [
        (LADDER, ["validate"]),
        (LADDER, ["matrices"]),
        (LADDER, ["simulate", "--steps", "1"]),
        (LADDER, ["analyze"]),
        (LADDER, ["reach", "--target", "1,1"]),
        (COPRIME, ["validate"]),
    ],
    ids=["ladder-validate", "ladder-matrices", "ladder-simulate", "ladder-analyze",
         "ladder-reach", "coprime-validate"],
)
def test_guard_past_walk_budget_exit_2_without_traceback(tmp_path, guard, argv):
    # small guards whose lassos need millions of subset states are refused
    # by the walk budget, not by running out of memory
    pytest.importorskip("resource")
    path = tmp_path / "wide.snp"
    path.write_text(f"neuron a spikes=1\nneuron b spikes=0\nrule a E={guard} c=1 p=1 d=0\nsyn a b\n")
    proc = subprocess.run(
        [sys.executable, "-m", "snpkit.cli", argv[0], str(path), *argv[1:]],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"snpkit: error: {path}: line 3: bad guard regex: compiling would store "
        "more than 1000000 positions (offset 0)"
    ]


def test_cli_import_loads_no_rational_arithmetic():
    # every query pays the CLI's imports: the arithmetic is integer only,
    # and records are built without dataclasses (which imports inspect)
    code = (
        "import sys, snpkit.cli; "
        "print(sorted({'fractions', 'decimal', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
