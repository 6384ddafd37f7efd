"""The scripts under scripts/, each run as a subprocess.

Every script exits 0 without a traceback, formula_report takes the
gating identity at the states its trace really passed through, and
replay_outputs prints one digest line per workload, pinned for seed 1.
"""

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


@pytest.mark.parametrize(
    "argv",
    [["derive_goldens.py"], ["formula_report.py"], ["interval_census.py", "--max-depth", "4"]],
    ids=["derive_goldens", "formula_report", "interval_census"],
)
def test_script_exits_0_without_traceback(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()


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


# The query count and digest of seed 1's queries: a change that alters any
# byte the CLI prints (JSON layout, matrix text, a trace's choices, a
# verdict) fails here.  A change that alters the output on purpose updates
# them.
REPLAY_SEED_1 = {
    "sim": (105, "ca1ff041a76ef6afa24a97b1a08e22d1073d61d474f5e60b86cd6312d49e153b"),
    "explore": (104, "d799e956ac4695cfc8642cacfcfb127c691b355ea9d1bd320b9241ed109120f7"),
    "reach": (105, "924e694eeaeaf5a6e12b23fce1ea67bf7fe9926e1c2db15dba5bf1b6d5275bc2"),
    "static": (105, "700b45b577a19d0967b95f5e9b62b397b4829febea3f9d90d2111e72ebdac7e1"),
}


def test_replay_outputs_prints_one_digest_per_workload():
    proc = run_script("replay_outputs.py", *REPLAY_SEED_1, "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name} seeds 1: {count} queries sha256 {sha}"
        for name, (count, sha) in REPLAY_SEED_1.items()
    ]
