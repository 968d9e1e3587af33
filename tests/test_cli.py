import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dicke_ed import cli
from dicke_ed.cli import (
    main,
    parse_cases,
    parse_float_list,
    parse_n_list,
    parse_schedule,
)
from dicke_ed.errors import ConfigError
from dicke_ed.store import ResultStore


def run(capsys, *argv):
    """Exit code, stdout and stderr of one CLI run; argparse errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestParsers:
    def test_float_list(self):
        assert parse_float_list("0.1,1,10") == [0.1, 1.0, 10.0]
        grid = parse_float_list("0:1:0.25")
        assert grid == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_n_list(self):
        assert parse_n_list("16..128") == [16, 32, 64, 128]
        assert parse_n_list("8,12,16") == [8, 12, 16]

    def test_cases(self):
        assert parse_cases("dcs:6,dfs:100") == [("dcs", 6), ("dfs", 100)]

    def test_schedule(self):
        assert parse_schedule("4,6,8") == (4, 6, 8)

    @pytest.mark.parametrize("bad,parser", [
        ("1:0:0.1", parse_float_list),
        ("abc", parse_float_list),
        ("a:b:c", parse_float_list),
        ("0:1:", parse_float_list),
        ("32..16", parse_n_list),
        ("8,8", parse_n_list),
        ("dcs-6", parse_cases),
        ("xyz:4", parse_cases),
        ("8,6", parse_schedule),
    ])
    def test_rejects_malformed(self, bad, parser):
        with pytest.raises(ConfigError):
            parser(bad)


class TestSolve:
    def test_decoupled_row(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "solve", "--n-atoms", "8", "--lambda", "0",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        row = read_rows(out)[0]
        assert float(row["E0_scaled"]) == pytest.approx(-1.0, abs=1e-10)
        assert float(row["B_N"]) == pytest.approx(0.0, abs=1e-10)
        assert row["parity"] == "even"

    @pytest.mark.parametrize("n_atoms,lam,winner", [("31", "2", "odd"), ("32", "0.3", "even")])
    def test_parity_full_prints_the_lower_sector(self, tmp_path, capsys, n_atoms, lam, winner):
        """``--parity full`` prints the E0 bytes of the lower of the even and
        odd runs, and keeps ``full`` in its parity column."""
        rows = {}
        for parity in ("full", "even", "odd"):
            code, out, _ = run(capsys, "solve", "--n-atoms", n_atoms, "--lambda", lam,
                               "--parity", parity, "--workers", "1",
                               "--out-dir", str(tmp_path))
            assert code == 0
            rows[parity] = read_rows(out)[0]
        lower = min(("even", "odd"), key=lambda s: float(rows[s]["E0"]))
        assert rows["full"]["E0"] == rows[lower]["E0"] == rows[winner]["E0"]
        assert rows["full"]["parity"] == "full"
        assert float(rows["full"]["residual"]) < 1e-10

    def test_cache_hit_identical_output(self, tmp_path, capsys):
        argv = ("solve", "--n-atoms", "8", "--lambda", "0.4",
                "--out-dir", str(tmp_path))
        code1, out1, err1 = run(capsys, *argv)
        code2, out2, err2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "cache hit" in err2 and "cache hit" not in err1
        manifest = (tmp_path / "manifest.jsonl").read_text().strip().splitlines()
        assert len(manifest) == 1  # dedup: no second entry

    def test_digest_free_of_workers_and_store(self, tmp_path, capsys):
        """Worker count and store root never enter the digest; the model does."""
        a, b = tmp_path / "a", tmp_path / "b"
        code1, out1, _ = run(capsys, "solve", "--n-atoms", "8", "--lambda", "0.5",
                             "--workers", "1", "--out-dir", str(a))
        code2, out2, err2 = run(capsys, "solve", "--n-atoms", "8", "--lambda", "0.5",
                                "--workers", "7", "--out-dir", str(a))
        code3, out3, _ = run(capsys, "solve", "--lambda", "0.5", "--n-atoms", "8",
                             "--workers", "3", "--out-dir", str(b))
        assert code1 == code2 == code3 == 0
        assert "cache hit" in err2 and out1 == out2 == out3
        assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
        assert run(capsys, "solve", "--n-atoms", "9", "--lambda", "0.5",
                   "--workers", "1", "--out-dir", str(b))[0] == 0
        digests = [e["digest"] for e in ResultStore(b).entries()]
        assert len(digests) == len(set(digests)) == 2

    def test_manifest_contents(self, tmp_path, capsys):
        run(capsys, "solve", "--n-atoms", "4", "--lambda", "0.3",
            "--out-dir", str(tmp_path))
        entry = json.loads((tmp_path / "manifest.jsonl").read_text())
        assert entry["command"] == "solve"
        assert entry["wall_s"] >= 0
        assert entry["schema"] == 1
        assert entry["version"]
        assert (tmp_path / entry["files"][0]).exists()
        assert (tmp_path / f"{entry['digest']}.config.json").exists()

    def test_alpha_flag(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "solve", "--n-atoms", "8", "--alpha", "1",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert float(read_rows(out)[0]["lambda"]) == pytest.approx(0.5)

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("n_atoms = 8\nomega = 1.0\ndelta = 2.0  # splitting\nalpha = 1\n")
        code, out, _ = run(
            capsys, "solve", "--config", str(cfg), "--out-dir", str(tmp_path),
        )
        assert code == 0
        row = read_rows(out)[0]
        assert float(row["delta"]) == 2.0
        assert float(row["lambda"]) == pytest.approx(0.5 * math.sqrt(2.0))

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("n_atoms = 8\nlambda = 0.9\n")
        code, out, _ = run(
            capsys, "solve", "--config", str(cfg), "--lambda", "0",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert float(read_rows(out)[0]["E0_scaled"]) == pytest.approx(-1.0, abs=1e-9)

    def test_bad_config_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_atoms = 8\nnot a pair\n")
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "bad.cfg:2" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_atoms = 8\ncoupling = 2\n")
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "coupling" in err

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "solve", "--n-atoms", "8", "--lambda", "0.7",
            "--threshold", "1e-30", "--ntr-schedule", "4,6",
            "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "solver failure" in err

    def test_dimension_cap_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "solve", "--n-atoms", "64", "--lambda", "0.5",
            "--max-dim", "50", "--out-dir", str(tmp_path),
        )
        assert code == 4
        assert "resource cap" in err

    @pytest.mark.parametrize("track", ["foo", "", "e0,foo"])
    def test_bad_track_exits_2_listing_names(self, tmp_path, capsys, track):
        code, out, err = run(
            capsys, "solve", "--n-atoms", "4", "--lambda", "0.3",
            "--track", track, "--out-dir", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert "config error" in err and "e0, b_n, gamma, jy2, c_n" in err

    def test_dump_matrix(self, tmp_path, capsys):
        dump = tmp_path / "h.coo"
        code, _, _ = run(
            capsys, "solve", "--n-atoms", "4", "--lambda", "0.5",
            "--dump-matrix", str(dump), "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = [line.split() for line in dump.read_text().splitlines()]
        assert all(len(r) == 3 for r in rows)
        dim = max(int(r[0]) for r in rows) + 1
        assert dim > 0 and dim % 5 == 0  # (N+1) | dim

    def test_dump_matrix_on_cache_hit(self, tmp_path, capsys):
        """A cache hit writes the same matrix a cold run writes."""
        dumps = [tmp_path / "cold.coo", tmp_path / "hit.coo"]
        errs = [run(capsys, "solve", "--n-atoms", "4", "--lambda", "0.3", "--dump-matrix",
                    str(dump), "--out-dir", str(tmp_path / "store"))[2] for dump in dumps]
        assert "cache hit" not in errs[0] and "cache hit" in errs[1]
        assert dumps[1].read_bytes() == dumps[0].read_bytes() != b""

    def test_dense_oracle_flag_matches(self, tmp_path, capsys):
        base = ("solve", "--n-atoms", "8", "--lambda", "0.6")
        _, out1, _ = run(capsys, *base, "--out-dir", str(tmp_path / "a"))
        _, out2, _ = run(capsys, *base, "--dense-oracle",
                         "--out-dir", str(tmp_path / "b"))
        e1 = float(read_rows(out1)[0]["E0"])
        e2 = float(read_rows(out2)[0]["E0"])
        assert e1 == pytest.approx(e2, abs=1e-9)


class TestCompare:
    def test_decoupled_column_identical(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "compare", "--n-atoms", "4", "--lambdas", "0,0.4",
            "--cases", "dcs:6,dfs:6,dfs:20", "--workers", "1",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(out)
        zero = [float(r["E0"]) for r in rows if float(r["lambda"]) == 0.0]
        assert np.ptp(zero) < 1e-10
        assert all(r["status"] == "ok" for r in rows)

    def test_cell_failure_marked_table_emitted(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "compare", "--n-atoms", "64", "--lambdas", "0.1",
            "--cases", "dcs:4,dcs:400", "--max-dim", "1000",
            "--workers", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error")

    def test_displaced_beats_bare_at_strong_coupling(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "compare", "--n-atoms", "8", "--lambdas", "1.2",
            "--cases", "dcs:6,dfs:12", "--workers", "1",
            "--out-dir", str(tmp_path),
        )
        rows = {(r["basis"], r["n_tr"]): float(r["E0"]) for r in read_rows(out)}
        assert rows[("dcs", "6")] < rows[("dfs", "12")]


class TestConvergeCommand:
    def test_lambda_map(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "converge", "--n-atoms", "8",
            "--lambdas", "0.3,0.5,0.7", "--ntr-list", "4",
            "--workers", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 3
        assert all(float(r["rel_dev"]) >= 0 for r in rows)
        assert "deviation peak" in err

    def test_at_critical_mode(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "converge", "--omega", "1", "--delta", "1",
            "--at-critical", "--N", "16,64", "--threshold", "1e-6",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(out)
        assert [r["N"] for r in rows] == ["16", "64"]
        assert "non-increasing" in err

    def test_at_critical_reads_config(self, tmp_path, capsys):
        """omega and delta come from --config, the flags overriding it."""
        cfg = tmp_path / "w.cfg"
        cfg.write_text("omega = 0.3\ndelta = 5\n")
        code, out, _ = run(capsys, "converge", "--at-critical", "--config", str(cfg),
                           "--delta", "0.7", "--N", "16,32,64", "--workers", "1",
                           "--out-dir", str(tmp_path / "store"))
        assert code == 0
        assert out == (GOLDEN / "converge-critical-w0.3-d0.7.csv").read_text()

    def test_requires_grid(self, tmp_path, capsys):
        code, _, err = run(capsys, "converge", "--n-atoms", "8",
                           "--out-dir", str(tmp_path))
        assert code == 2


class TestScalingCommand:
    def test_energy_run(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "scaling", "--observable", "energy", "--D", "1",
            "--N", "16..128", "--workers", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(out)
        assert [r["N"] for r in rows] == ["16", "32", "64", "128"]
        assert "exponent" in err and "approach=below" in err
        files = list(tmp_path.glob("scaling-*-slopes.csv"))
        assert len(files) == 1
        slope_rows = read_rows(files[0].read_text())
        assert len(slope_rows) == 3

    def test_concurrence_supplied_limit(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "scaling", "--observable", "concurrence", "--D", "1",
            "--N", "16..128", "--c-inf", "0.30", "--workers", "1",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "c_inf=0.3" in err

    def test_bad_c_inf(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "scaling", "--observable", "concurrence", "--D", "1",
            "--N", "16..64", "--c-inf", "maybe", "--out-dir", str(tmp_path),
        )
        assert code == 2

    def test_cache_hit(self, tmp_path, capsys):
        argv = ("scaling", "--observable", "berry", "--D", "1",
                "--N", "16..128", "--workers", "1", "--out-dir", str(tmp_path))
        code1, out1, _ = run(capsys, *argv)
        code2, out2, err2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "cache hit" in err2


@pytest.mark.parametrize("argv", [
    ("converge", "--at-critical", "--omega", "0.3", "--delta", "0.7", "--N", "16,32,64"),
    ("compare", "--n-atoms", "12", "--lambdas", "0:1:0.5", "--cases", "dcs:4,dfs:20"),
    ("scaling", "--observable", "concurrence", "--D", "1", "--N", "16..128"),
], ids=["converge-at-critical", "compare", "scaling"])
def test_workers_keep_bytes(tmp_path, capsys, argv):
    """The worker count changes neither stdout nor the stderr summary."""
    outs = [run(capsys, *argv, "--workers", w, "--out-dir", str(tmp_path / w))
            for w in ("1", "2")]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


DIGEST_CASES = {
    "solve": ("solve", "--n-atoms", "4", "--lambda", "0.3"),
    "compare": ("compare", "--n-atoms", "4", "--lambdas", "0.3", "--cases", "dcs:4"),
    "converge-lambda-map": ("converge", "--n-atoms", "4", "--lambdas", "0.3",
                            "--ntr-list", "4"),
    "converge-at-critical": ("converge", "--at-critical", "--N", "4,8"),
    "scaling": ("scaling", "--observable", "energy", "--D", "1", "--N", "4..32"),
}


@pytest.mark.parametrize("argv", list(DIGEST_CASES.values()), ids=list(DIGEST_CASES))
def test_digest_follows_the_settings(tmp_path, capsys, argv):
    """--seed and --solver-tol reach the solve and change the digest;
    --workers, --max-dim and --out-dir cannot change a digit and do not."""
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    runs = [run(capsys, *argv, *extra, "--out-dir", a) for extra in (
        ("--workers", "1"),
        ("--workers", "1", "--seed", "1"),
        ("--workers", "1", "--solver-tol", "1e-9"),
        ("--workers", "2", "--max-dim", "100000"),
    )]
    assert [code for code, _, _ in runs] == [0, 0, 0, 0]
    assert ["cache hit" in err for _, _, err in runs] == [False, False, False, True]
    assert runs[3][1] == runs[0][1]
    assert run(capsys, *argv, "--workers", "1", "--out-dir", b)[0] == 0
    digests = [e["digest"] for e in ResultStore(a).entries()]
    assert len(digests) == len(set(digests)) == 3
    assert [e["digest"] for e in ResultStore(b).entries()] == digests[:1]


@pytest.mark.parametrize("argv,dim", [
    (("scaling", "--observable", "energy", "--D", "1", "--N", "16..128"), "85 = (16+1)*(4+1)"),
    (("converge", "--at-critical", "--N", "16,32"), "85 = (16+1)*(4+1)"),
    (("converge", "--n-atoms", "32", "--lambdas", "0.5"), "165 = (32+1)*(4+1)"),
])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_max_dim_reaches_every_command(tmp_path, capsys, argv, dim, workers):
    code, out, err = run(capsys, *argv, "--max-dim", "50", "--workers", workers,
                         "--out-dir", str(tmp_path))
    assert (code, out) == (4, "")
    assert err == f"resource cap: dimension {dim} exceeds cap 50\n"


# argv -> the message of its exit 2
NON_FINITE = {
    "solve --n-atoms 4 --omega nan": "omega must be positive and finite, got nan",
    "solve --n-atoms 4 --lambda nan": "lam must be non-negative and finite, got nan",
    "solve --n-atoms 4 --lambda inf": "lam must be non-negative and finite, got inf",
    "solve --n-atoms 4 --alpha inf": "config key 'alpha': must be finite and >= 0, got inf",
    "solve --n-atoms 4 --delta inf": "delta must be positive and finite, got inf",
    "solve --n-atoms 4 --solver-tol inf": "--solver-tol must be positive and finite, got inf",
    "solve --n-atoms 4 --threshold inf": "--threshold must be positive and finite, got inf",
    "scaling --observable energy --D inf": "bad float list 'inf': every number must be finite",
    "scaling --observable energy --D 1 --omega inf":
        "--D values and --omega must be positive and finite, got 1.0, inf",
    "converge --at-critical --N 16,32 --omega inf":
        "--omega and --delta must be positive and finite, got inf, 1.0",
    "compare --n-atoms 4 --lambdas inf": "bad float list 'inf': every number must be finite",
    "compare --n-atoms 4 --lambdas 0:inf:0.1":
        "bad float list '0:inf:0.1': every number must be finite",
    "compare --n-atoms 4 --lambdas 0:1e300:1e-300": "bad range '0:1e300:1e-300'",
    "scaling --observable concurrence --D 1 --c-inf nan":
        "--c-inf must be 'fit' or a finite number, got 'nan'",
    "scaling --observable concurrence --D 1 --c-inf inf":
        "--c-inf must be 'fit' or a finite number, got 'inf'",
}


class TestBadNumbersExit2:
    """Bad numbers end in exit 2 with context, before any solve."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solve started")

        for name in ("converge", "run_jobs", "observable_sweep", "deviation_series"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv,flag", [
        (argv, flag)
        for argv in (("solve", "--n-atoms", "4", "--lambda", "0.3"),
                     ("compare", "--n-atoms", "4", "--lambdas", "0.3"),
                     ("converge", "--n-atoms", "4", "--lambdas", "0.3"),
                     ("converge", "--at-critical", "--N", "16,32"))
        for flag in ("--threshold", "--solver-tol")
        if argv[0] != "compare" or flag == "--solver-tol"  # compare has no --threshold
    ])
    @pytest.mark.parametrize("value", ["0", "-1e-6"])
    def test_non_positive_tolerance(self, tmp_path, capsys, argv, flag, value):
        code, out, err = run(capsys, *argv, f"{flag}={value}", "--workers", "1",
                             "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert f"config error: {flag} must be positive" in err

    @pytest.mark.parametrize("argv", [
        ("solve", "--n-atoms", "4", "--lambda", "0.3"),
        ("compare", "--n-atoms", "4", "--lambdas", "0.3"),
        ("converge", "--n-atoms", "4", "--lambdas", "0.3"),
        ("converge", "--at-critical", "--N", "16,32"),
        ("scaling", "--observable", "energy", "--D", "1", "--N", "16..128"),
    ])
    def test_negative_seed(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed=-1", "--workers", "1",
                             "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "config error: --seed must be non-negative, got -1" in err

    @pytest.mark.parametrize("argv", [
        ("compare", "--n-atoms", "4", "--lambdas=-0.5"),
        ("converge", "--n-atoms", "8", "--lambdas=-0.5,0.5"),
        ("converge", "--n-atoms", "8", "--lambdas=,"),
    ])
    def test_negative_or_no_coupling(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--workers", "1", "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert f"config error: --lambdas must be one or more non-negative couplings, " \
               f"got {argv[-1].split('=')[1]!r}" in err

    @pytest.mark.parametrize("argv", [
        ("solve", "--n-atoms", "4", "--lambda", "0.3"),
        ("scaling", "--observable", "energy", "--D", "1", "--N", "16..128"),
    ])
    @pytest.mark.parametrize("flag", ["--workers", "--max-dim"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one(self, tmp_path, capsys, argv, flag, value):
        code, out, err = run(capsys, *argv, f"{flag}={value}", "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"config error: {flag} must be at least 1, got {value}\n"

    @pytest.mark.parametrize("argv,why", [
        (("compare", "--lambdas", "0.3"), "with compare"),
        (("converge", "--lambdas", "0.3"), "without --at-critical"),
    ])
    @pytest.mark.parametrize("key", ["lambda", "alpha"])
    def test_config_coupling_outside_solve(self, tmp_path, capsys, argv, why, key):
        """compare and the lambda map take every coupling from --lambdas."""
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"n_atoms = 4\n{key} = 1\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg), "--workers", "1",
                             "--out-dir", str(tmp_path / "store"))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {cfg}: key {key!r} has no meaning {why} ")

    @pytest.mark.parametrize("argv,flag,why", [
        (("converge", "--at-critical", "--N", "16,32", "--lambdas", "0.5"),
         "--lambdas", "with --at-critical"),
        (("converge", "--at-critical", "--N", "16,32", "--ntr-list", "4"),
         "--ntr-list", "with --at-critical"),
        (("converge", "--at-critical", "--N", "16,32", "--lambdas", "0.5", "--ntr-list", "4"),
         "--lambdas", "with --at-critical"),
        (("converge", "--n-atoms", "16", "--lambdas", "0.5", "--N", "16,32"),
         "--N", "without --at-critical"),
        (("scaling", "--observable", "energy", "--D", "1", "--c-inf", "0.3"),
         "--c-inf", "with --observable energy"),
        (("scaling", "--observable", "berry", "--D", "1", "--c-inf", "fit"),
         "--c-inf", "with --observable berry"),
    ])
    def test_flag_the_mode_ignores(self, tmp_path, capsys, argv, flag, why):
        code, out, err = run(capsys, *argv, "--workers", "1", "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"config error: {flag} has no meaning {why}\n"

    @pytest.mark.parametrize("extra,message", [
        (("--N", "16..64"), "at least 4 sizes"),
        (("--N", "16"), "at least 4 sizes"),
        (("--D", "0"), "must be positive"),
        (("--D", "-10"), "must be positive"),
        (("--D", "1,0"), "must be positive"),
        (("--omega", "0"), "must be positive"),
        (("--threshold", "0"), "must be positive"),
        (("--D", ","), "--D must be one or more ratios, got ','"),
    ])
    def test_bad_scaling_input(self, tmp_path, capsys, extra, message):
        argv = {"--observable": "energy", "--D": "1", "--N": "16..128"}
        argv.update(zip(extra[::2], extra[1::2]))
        code, out, err = run(capsys, "scaling", *(f"{k}={v}" for k, v in argv.items()),
                             "--workers", "1", "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "config error" in err and message in err

    @pytest.mark.parametrize("key,flag,value", [
        ("n_atoms", "--n-atoms", "99"), ("lambda", "--lambda", "3"), ("alpha", "--alpha", "1"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_at_critical_refuses_coupling_and_size(self, tmp_path, capsys, key, flag, value,
                                                   source):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"omega = 0.3\n{key} = {value}\n" if source == "config" else "")
        extra = (flag, value) if source == "flag" else ()
        code, out, err = run(capsys, "converge", "--at-critical", "--config", str(cfg),
                             *extra, "--N", "16,32", "--workers", "1",
                             "--out-dir", str(tmp_path / "store"))
        assert code == 2 and out == ""
        if source == "flag" and key != "n_atoms":
            # only solve registers --lambda and --alpha
            assert f"error: unrecognized arguments: {flag} {value}" in err
        else:
            named = flag if source == "flag" else f"key {key!r}"
            assert "config error: " in err and f"{named} has no meaning with --at-critical" in err

    @pytest.mark.parametrize("argv", list(NON_FINITE))
    def test_non_finite_number(self, tmp_path, capsys, argv):
        """NaN and infinity exit 2 and name the value, before any solve."""
        code, out, err = run(capsys, *argv.split(), "--workers", "1", "--out-dir", str(tmp_path))
        assert (code, out, err) == (2, "", f"config error: {NON_FINITE[argv]}\n")

    @pytest.mark.parametrize("flag,value", [("--omega", "0"), ("--delta", "-1")])
    def test_bad_at_critical_energies(self, tmp_path, capsys, flag, value):
        code, out, err = run(capsys, "converge", "--at-critical", "--N", "16,32",
                             f"{flag}={value}", "--workers", "1", "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "config error: --omega and --delta must be positive" in err


GOLDEN = Path(__file__).parent / "golden"

# stdout of help (.txt) and stderr of usage errors (.stderr), at 80 columns
HELP_CASES = {
    "cli-help.txt": ["--help"],
    **{f"cli-help-{c}.txt": [c, "--help"] for c in ("solve", "compare", "converge", "scaling")},
    "cli-usage-missing.stderr": [],
    "cli-usage-unknown.stderr": ["solv", "--n-atoms", "4"],
    "cli-usage-solve-bogus.stderr": ["solve", "--bogus", "1"],
    "cli-usage-scaling-missing.stderr": ["scaling", "--D", "1"],
}


class TestArgparseBehavior:
    @pytest.mark.parametrize("name", sorted(HELP_CASES))
    def test_help_and_usage_bytes(self, name, capsys, monkeypatch):
        """The parser adds only the invoked subcommand's arguments; help and
        usage errors still print the pinned bytes."""
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main(HELP_CASES[name])
        captured = capsys.readouterr()
        pinned = (GOLDEN / name).read_text()
        if name.endswith(".txt"):
            assert (info.value.code, captured.out, captured.err) == (0, pinned, "")
        else:
            assert (info.value.code, captured.out, captured.err) == (2, "", pinned)

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["scaling", "--D", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["scaling", "--observable", "energy", "--D", "1"],
        ["converge", "--at-critical", "--N", "16,32"],
        ["converge", "--n-atoms", "8", "--lambdas", "0.5"],
    ])
    def test_dense_oracle_only_where_used(self, capsys, argv):
        """Only solve and compare pass --dense-oracle to the solver."""
        with pytest.raises(SystemExit) as info:
            main(argv + ["--dense-oracle"])
        assert info.value.code == 2
        assert "unrecognized arguments: --dense-oracle" in capsys.readouterr().err


    @pytest.mark.parametrize("argv,flag", [
        (["compare", "--n-atoms", "8", "--lambdas", "0.5", "--lambda", "3"], "--lambda 3"),
        (["compare", "--n-atoms", "8", "--lambdas", "0.5", "--alpha", "1"], "--alpha 1"),
        (["converge", "--n-atoms", "8", "--lambdas", "0.5", "--lambda", "3"], "--lambda 3"),
        (["converge", "--n-atoms", "8", "--lambdas", "0.5", "--alpha", "1"], "--alpha 1"),
    ])
    def test_coupling_flags_only_in_solve(self, capsys, argv, flag):
        """--lambda is neither read nor taken for an abbreviation of --lambdas."""
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


FOOTPRINT = """
import json, sys
import dicke_ed.cli
loaded = [m for m in ("scipy.linalg", "scipy._lib", "multiprocessing") if m in sys.modules]
before = set(sys.modules)
code = dicke_ed.cli.main(["solve", "--n-atoms", "64", "--workers", "1", "--out-dir", sys.argv[1]])
added = sorted(set(sys.modules) - before)
sys.stderr.write(json.dumps({"code": code, "loaded": loaded, "added": added}) + "\\n")
"""


class TestImportFootprint:
    """The CLI loads neither the scipy.linalg package nor the process pool,
    and a cold solve imports nothing after it: both are set-up cost."""

    def test_import_and_cold_solve(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT, str(tmp_path / "store")],
                              env=env, capture_output=True, text=True, timeout=120)
        report = json.loads(proc.stderr.strip().splitlines()[-1])
        assert report == {"code": 0, "loaded": [], "added": []}
