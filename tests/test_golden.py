"""Golden CLI bytes: reruns must reproduce the checked-in stdout exactly.

The files under ``tests/golden/`` were captured from ``dicke-ed`` runs with
``--workers 1`` into an empty store.  A change that moves any printed digit
fails here; a deliberate change must regenerate the file and say why.
"""

from pathlib import Path

import pytest

from dicke_ed.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "compare-n32.csv": ["compare", "--n-atoms", "32", "--lambdas", "0:2:0.5"],
    "compare-n31-odd.csv": ["compare", "--n-atoms", "31", "--parity", "odd",
                            "--lambdas", "0:3:0.5", "--cases", "dcs:8,dfs:10,dfs:60"],
    "solve-n32.csv": ["solve", "--n-atoms", "32", "--lambda", "1"],
    "solve-n1024-critical.csv": ["solve", "--n-atoms", "1024", "--omega", "1",
                                 "--delta", "1", "--lambda", "0.5"],
    "converge-critical-n16-128.csv": ["converge", "--at-critical", "--N", "16..128"],
    "converge-n32.csv": ["converge", "--n-atoms", "32", "--lambdas", "0:2:0.5"],
    "scaling-energy-d10.csv": ["scaling", "--observable", "energy", "--D", "10",
                               "--N", "16..128"],
    **{f"scaling-{obs}-d1.csv": ["scaling", "--observable", obs, "--D", "1",
                                 "--N", "16..128"]
       for obs in ("energy", "berry", "concurrence")},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, tmp_path, capsys):
    argv = CASES[name] + ["--workers", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
