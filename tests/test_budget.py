"""Budget table: adversarial ``cluster`` inputs, each run in a capped child.

Each row builds an input and runs ``python -m commdir.cli cluster`` on it in
a child process whose address space ``RLIMIT_AS`` caps, with a hang limit.
The run must end with one of the row's exit codes, print at most one
``error:`` line and no traceback, and leave no partial ``--out``: nothing
when it fails, and no temporary file when it succeeds.

A row, once added, is never loosened: its cap, its hang limit and its exit
codes may only tighten. Each cap is at least twice the address space that
the row was measured to need, plus 32 MiB for an interpreter that maps
more, and each hang limit is far above its run time: only a change in how
the program grows should trip one.
"""

import os
import pathlib
import resource
import subprocess
import sys

import pytest

from loggen import moon_moser_log, shared_index_log, write_wide_log

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def moon_moser(tmp_path):
    """729 maximal cliques of 6 users, nearly every pair of them overlapping."""
    log_text, tax_text, tau = moon_moser_log(6)
    (tmp_path / "mm.log").write_text(log_text)
    (tmp_path / "mm.tsv").write_text(tax_text)
    return [tmp_path / "mm.log", "--taxonomy", tmp_path / "mm.tsv", "--tau", tau]


def sparse_tau_zero(tmp_path):
    """The benchmark's sparse-artificial log, with an edge for every pair of users."""
    files, _ = gen.generate("sparse-artificial", 1, str(tmp_path))
    return [files["log"], "--artificial", "--sigma", "0.2", "--tau", "0"]


def shared_index(tmp_path):
    """1,000 sites that all share the token ``index``: every pair is linked."""
    (tmp_path / "shared.log").write_text(shared_index_log(1_000))
    return [tmp_path / "shared.log", "--artificial", "--sigma", "0.3"]


def wide(tmp_path):
    """70,000 distinct resources, more than the 65,536 entries that a cache
    of ``extract_page_ref`` once held."""
    write_wide_log(tmp_path / "wide.log", 70_000, 700)
    return [tmp_path / "wide.log", "--artificial"]


# (input builder, address-space cap in MiB, hang limit in seconds, allowed exit codes).
# Need: the smallest cap under which the row still succeeded, on Pythons 3.10-3.13.
ROWS = [
    pytest.param(moon_moser, 224, 60, {0}, id="moon-moser-k6"),  # need 86-90 MiB, 0.8 s
    pytest.param(sparse_tau_zero, 256, 60, {0}, id="sparse-x1-tau0"),  # need 106-110 MiB, 0.9 s
    pytest.param(shared_index, 80, 60, {0}, id="shared-index-1k-sigma0.3"),  # need 19-23 MiB, 0.3 s
    pytest.param(wide, 208, 60, {0}, id="wide-70k-resources"),  # need 75-82 MiB, 1.2 s
]


@pytest.mark.parametrize("build, cap_mib, limit_s, exits", ROWS)
def test_budget(tmp_path, build, cap_mib, limit_s, exits):
    argv = [str(arg) for arg in build(tmp_path)]
    out = tmp_path / "out"

    def cap_address_space():
        # Runs in the child between fork and exec, so only the child is capped.
        resource.setrlimit(resource.RLIMIT_AS, (cap_mib << 20, cap_mib << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "commdir.cli", "cluster", *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": SRC}, preexec_fn=cap_address_space,
        capture_output=True, text=True, timeout=limit_s)
    assert proc.returncode in exits, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = proc.stderr.splitlines()
    assert len(errors) == (proc.returncode != 0), proc.stderr
    assert all(line.startswith("error: ") for line in errors)
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    if proc.returncode:
        assert written == []
    else:
        assert "report.json" in written
        assert not [name for name in written if name.startswith(".tmp-")]
