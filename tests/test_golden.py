"""Golden CLI bytes: reruns must reproduce the checked-in outputs exactly.

The files under ``tests/golden/`` were captured from ``dicke-ed`` runs with
``--workers 1`` into an empty store.  Each case pins its stdout
(``<case>.csv``); a ``converge`` or ``scaling`` case also pins its stderr
summary (``<case>.stderr``), and a ``scaling`` case its slopes file
(``<case>-slopes.csv``).  ``solve-n2-dump.coo`` pins the bytes of a
``solve --dump-matrix`` file.  A change that moves any printed digit fails here;
a deliberate change must regenerate the file and say why.
"""

from pathlib import Path

import pytest

from dicke_ed.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "compare-n32.csv": ["compare", "--n-atoms", "32", "--lambdas", "0:2:0.5"],
    "compare-n31-odd.csv": ["compare", "--n-atoms", "31", "--parity", "odd",
                            "--lambdas", "0:3:0.5", "--cases", "dcs:8,dfs:10,dfs:60"],
    # pinned from dense eigh, which the certified solve reproduces byte for byte
    "compare-n12-dense-oracle.csv": ["compare", "--n-atoms", "12", "--parity", "full",
                                     "--lambdas", "0:2:0.5", "--cases", "dcs:4,dfs:20"],
    "solve-n32.csv": ["solve", "--n-atoms", "32", "--lambda", "1"],
    "solve-n31-full.csv": ["solve", "--n-atoms", "31", "--lambda", "2", "--parity", "full"],
    "solve-n1024-critical.csv": ["solve", "--n-atoms", "1024", "--omega", "1",
                                 "--delta", "1", "--lambda", "0.5"],
    "converge-critical-n16-128.csv": ["converge", "--at-critical", "--N", "16..128"],
    "converge-critical-w0.3-d0.7.csv": ["converge", "--at-critical", "--omega", "0.3",
                                        "--delta", "0.7", "--N", "16,32,64"],
    "converge-n32.csv": ["converge", "--n-atoms", "32", "--lambdas", "0:2:0.5"],
    "scaling-energy-d10.csv": ["scaling", "--observable", "energy", "--D", "10",
                               "--N", "16..128"],
    "scaling-energy-d0.5-2-w0.7.csv": ["scaling", "--observable", "energy", "--D", "0.5,2",
                                       "--omega", "0.7", "--N", "16..128"],
    "scaling-concurrence-d1-cinf0.3.csv": ["scaling", "--observable", "concurrence",
                                           "--D", "1", "--N", "16..128", "--c-inf", "0.3"],
    **{f"scaling-{obs}-d1.csv": ["scaling", "--observable", obs, "--D", "1",
                                 "--N", "16..128"]
       for obs in ("energy", "berry", "concurrence")},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, tmp_path, capsys):
    argv = CASES[name] + ["--workers", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / name).read_text()
    stem = name.removesuffix(".csv")
    if argv[0] in ("converge", "scaling"):
        assert captured.err == (GOLDEN / f"{stem}.stderr").read_text()
    if argv[0] == "scaling":
        (slopes,) = tmp_path.glob("*-slopes.csv")
        assert slopes.read_text() == (GOLDEN / f"{stem}-slopes.csv").read_text()


def test_dump_matrix_matches_golden(tmp_path, capsys):
    """``solve --dump-matrix`` writes the whole displaced-basis matrix at the
    accepted truncation (n_tr = 3 here), every kernel entry, byte for byte."""
    dump = tmp_path / "h.coo"
    argv = ["solve", "--n-atoms", "2", "--lambda", "0.5", "--ntr-schedule", "2,3",
            "--threshold", "0.1", "--dump-matrix", str(dump),
            "--workers", "1", "--out-dir", str(tmp_path / "store")]
    assert main(argv) == 0
    capsys.readouterr()
    assert dump.read_bytes() == (GOLDEN / "solve-n2-dump.coo").read_bytes()
