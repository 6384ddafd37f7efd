"""The scripts under scripts/, each run as a subprocess.

Every script exits 0 without a traceback and prints the bytes pinned
here, the scripts that take a system refuse the ones the CLI refuses,
formula_report takes the gating identity at the states its trace really
passed through, and replay_outputs prints one digest line per workload,
pinned for seeds 1-3.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )


# The sha256 of each script's stdout: a change that moves any number or
# word the scripts print fails here.  A change that alters the output on
# purpose updates them.
@pytest.mark.parametrize(
    "argv, sha",
    [
        (["derive_goldens.py"],
         "9ae16b435af8e691cf4c2b6e02235d07e4a24f238fe4346197680958eca52b85"),
        (["formula_report.py"],
         "64b1bf39312d894b217503244159002bbc9e9feacacffccfc52407ea78de8a5b"),
        (["interval_census.py", "--max-depth", "4"],
         "2750c5f68ab981f5f6646da315a3f2159aca514fa2a1e00e7622350bc92621a3"),
    ],
    ids=["derive_goldens", "formula_report", "interval_census"],
)
def test_script_exits_0_without_traceback(argv, sha):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha


@pytest.mark.parametrize("script", ["formula_report.py", "interval_census.py"])
@pytest.mark.parametrize("path", ["missing.snp", "tests/golden/bad.snp", "unparsed.snp"])
def test_script_refuses_a_system_the_cli_refuses(tmp_path, script, path):
    # exit 2, the error lines `snpkit simulate` prints, nothing on stdout
    if path == "unparsed.snp":
        (tmp_path / path).write_text("neuron a\n")
        path = str(tmp_path / path)
    proc = run_script(script, path)
    cli = subprocess.run(
        [sys.executable, "-m", "snpkit.cli", "simulate", path],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert cli.returncode in (1, 2) and cli.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", cli.stderr)


def _sections(out: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    lines: list[str] = []
    for line in out.splitlines():
        if line.startswith("== "):
            lines = sections.setdefault(line, [])
        elif line:
            lines.append(line)
    return sections


def test_formula_report_gating_identity_at_replayed_states():
    sections = _sections(run_script("formula_report.py").stdout)
    gating = "== gating identity at each recorded state, mode={} =="
    # paper-trace, k=4: the trace fired (1, 0, 0, 1), so it must be listed
    assert (
        "k=4 Sp=(1, 0, 0, 1): receiver-gated (-1, 1, 0) owner-gated (-1, 1, 0) holds"
        in sections[gating.format("paper-trace")]
    )
    # standard, k=2: the delayed rule's release is due, so Iv carries it
    assert (
        "k=2 Sp=(1, 0, 0, 0): receiver-gated (-1, 2, 0) owner-gated (-1, 1, 0) SPLITS"
        in sections[gating.format("standard")]
    )


# The query count and digest of the queries of seeds 1, 2 and 3, the
# byte-identity gate: a change that alters any byte the CLI prints (JSON
# layout, matrix text, a trace's choices, a verdict) fails here.  A change
# that alters the output on purpose updates them.
REPLAY_SEEDS_1_2_3 = {
    "sim": (315, "dfbd3e4b5c91019d6145d1d3b48907142520114976fbafb9a94e3a01f1b7e42d"),
    "explore": (312, "3d92c42a14db311a7de2b6c103dfc58a6aae1c4968c515c1fd4303d268c8cfc8"),
    "reach": (315, "cc5d69d05f83dea4040411b447ec51f51db872317825476486e18599d1353ea0"),
    "static": (315, "c1d28575127c760f2107fb3adf81e0185ecb7a29d266fcf8bd4d7ce45ffbcfa9"),
}


def test_replay_outputs_prints_one_digest_per_workload():
    proc = run_script("replay_outputs.py", *REPLAY_SEEDS_1_2_3, "--seeds", "1,2,3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name} seeds 1,2,3: {count} queries sha256 {sha}"
        for name, (count, sha) in REPLAY_SEEDS_1_2_3.items()
    ]
