import json
import math
from pathlib import Path

import numpy as np
import pytest

from dicke_ed import cli, scaling
from dicke_ed.cli import (
    RunConfig,
    main,
    parse_cases,
    parse_float_list,
    parse_n_list,
    parse_schedule,
)
from dicke_ed.errors import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
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
        ("32..16", parse_n_list),
        ("8,8", parse_n_list),
        ("dcs-6", parse_cases),
        ("xyz:4", parse_cases),
        ("8,6", parse_schedule),
    ])
    def test_rejects_malformed(self, bad, parser):
        with pytest.raises(ConfigError):
            parser(bad)

    def test_digest_stable_and_layout_free(self):
        a = RunConfig("solve", {"n_atoms": 8, "lambda": 0.5})
        b = RunConfig("solve", {"lambda": 0.5, "n_atoms": 8},
                      out_dir="elsewhere", workers=7)
        assert a.digest == b.digest
        assert a.digest != RunConfig("solve", {"n_atoms": 9, "lambda": 0.5}).digest


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


class TestBadNumbersExit2:
    """Bad numbers end in exit 2 with context, before any solve."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(scaling, "observable_sweep", refuse)
        monkeypatch.setattr(cli, "converge", refuse)
        monkeypatch.setattr(cli, "_run_jobs", refuse)

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

    @pytest.mark.parametrize("extra,message", [
        (("--N", "16..64"), "at least 4 sizes"),
        (("--N", "16"), "at least 4 sizes"),
        (("--D", "0"), "must be positive"),
        (("--D", "-10"), "must be positive"),
        (("--D", "1,0"), "must be positive"),
        (("--omega", "0"), "must be positive"),
        (("--threshold", "0"), "must be positive"),
    ])
    def test_bad_scaling_input(self, tmp_path, capsys, extra, message):
        argv = {"--observable": "energy", "--D": "1", "--N": "16..128"}
        argv.update(zip(extra[::2], extra[1::2]))
        code, out, err = run(capsys, "scaling", *(f"{k}={v}" for k, v in argv.items()),
                             "--workers", "1", "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "config error" in err and message in err


class TestArgparseBehavior:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["scaling", "--D", "1"])
        assert info.value.code == 2
