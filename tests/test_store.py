import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dicke_ed import __version__, cli, store
from dicke_ed.cli import main
from dicke_ed.store import ResultStore


@pytest.fixture
def popen_calls(monkeypatch):
    """Arguments of every subprocess started while the test runs."""
    calls = []
    real_popen = subprocess.Popen

    def counting_popen(*args, **kwargs):
        calls.append(args)
        return real_popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", counting_popen)
    store.describe_version.cache_clear()
    return calls


def test_records_start_no_subprocess(tmp_path, popen_calls):
    rs = ResultStore(tmp_path)
    first = rs.record("a" * 16, "solve", [], 0.1, {"command": "solve"})
    second = rs.record("b" * 16, "solve", [], 0.2, {"command": "solve"})
    assert popen_calls == []
    assert first["version"] == second["version"]
    assert first["version"].startswith(__version__ + "+src.")
    assert len(rs.entries()) == 2


@pytest.mark.parametrize("config", [
    {},
    {"command": "solve", "n_atoms": 1024, "omega": 1.0, "delta": 1.0, "lambda": 0.5},
    {"b": [1, 2.5, None, True], "a": {"nested": "\u00e9", "z": -0.0}},
])
def test_config_digest_is_blake2b_of_canonical_json(config):
    """16 hex: BLAKE2b with an 8-byte digest of the sorted, compact JSON."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    assert store.config_digest(config) == hashlib.blake2b(canon.encode(), digest_size=8).hexdigest()


def test_describe_version_digests_the_sources():
    """The version, then 12 hex: BLAKE2b with a 6-byte digest of each module's
    name, a NUL and its bytes, in name order.  The hash is hashlib's own
    builtin BLAKE2b, imported without hashlib."""
    store.describe_version.cache_clear()
    here = Path(store.__file__).parent
    digest = hashlib.blake2b(digest_size=6)
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + (here / name).read_bytes())
    version = store.describe_version()
    assert re.fullmatch(re.escape(__version__) + r"\+src\.[0-9a-f]{12}", version)
    assert version == f"{__version__}+src.{digest.hexdigest()}"
    assert store.blake2b is hashlib.blake2b


def test_cold_solve_starts_no_subprocess(tmp_path, capsys, popen_calls):
    argv = ["solve", "--n-atoms", "4", "--lambda", "0.3", "--workers", "1",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "cache hit" not in capsys.readouterr().err
    assert popen_calls == []


def test_source_edit_turns_hit_cold(tmp_path):
    """A copy of the package outside any checkout: a one-byte edit to a module
    changes the version, so the rerun is cold."""
    src = tmp_path / "src"
    shutil.copytree(Path(store.__file__).parent, src / "dicke_ed",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "dicke_ed.cli", "solve", "--n-atoms", "4",
            "--lambda", "0.3", "--workers", "1", "--out-dir", str(tmp_path / "store")]

    def run():
        return subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True,
                              text=True, check=True)

    first, hit = run(), run()
    assert "cache hit" in hit.stderr and hit.stdout == first.stdout
    with open(src / "dicke_ed" / "model.py", "a") as fh:
        fh.write("\n")
    edited = run()
    assert "cache hit" not in edited.stderr
    assert edited.stdout == first.stdout


def test_version_or_schema_change_turns_hit_cold(tmp_path, monkeypatch):
    rs = ResultStore(tmp_path)
    rs.write_text("solve-x.csv", "E0\n-1.0\n")
    rs.record("a" * 16, "solve", ["solve-x.csv"], 0.1, {"command": "solve"})
    assert rs.lookup("a" * 16)["files"] == ["solve-x.csv"]
    with monkeypatch.context() as m:
        m.setattr(store, "describe_version", lambda: "0.0.0+gother")
        assert rs.lookup("a" * 16) is None
    with monkeypatch.context() as m:
        m.setattr(store, "CSV_SCHEMA_VERSION", store.CSV_SCHEMA_VERSION + 1)
        assert rs.lookup("a" * 16) is None
    assert rs.lookup("a" * 16) is not None


def test_version_bump_reruns_cli_cold(tmp_path, monkeypatch, capsys):
    argv = ["solve", "--n-atoms", "4", "--lambda", "0.3", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv) == 0
    assert "cache hit" in capsys.readouterr().err
    monkeypatch.setattr(store, "describe_version", lambda: "0.0.0+gother")
    assert main(argv) == 0
    rerun = capsys.readouterr()
    assert "cache hit" not in rerun.err
    assert rerun.out == first.out


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, fail_at):
    rs = ResultStore(tmp_path)
    text = "E0\n" * 1000
    if fail_at == "write":
        text += "\ud800"  # not encodable: the write itself raises
    else:
        def broken_replace(src, dst):
            raise OSError("interrupted")
        monkeypatch.setattr(store.os, "replace", broken_replace)
    with pytest.raises((UnicodeEncodeError, OSError)):
        rs.write_text("solve-x.csv", text)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad_line", ['{"digest": "abc", "comm', "[1,2]\n"])
def test_unreadable_manifest_line_is_a_miss(tmp_path, capsys, bad_line):
    """A manifest line torn by a run that died mid-append, or one that is not
    an object, reads as a cache miss: the rerun exits 0 with a cold run's
    bytes, and its own entry starts a fresh line, so the next run hits."""
    argv = ["solve", "--n-atoms", "4", "--lambda", "0.3", "--workers", "1", "--out-dir"]
    assert main(argv + [str(tmp_path / "cold")]) == 0
    cold = capsys.readouterr().out
    damaged = tmp_path / "damaged"
    damaged.mkdir()
    (damaged / "manifest.jsonl").write_text(bad_line)
    assert main(argv + [str(damaged)]) == 0
    rerun = capsys.readouterr()
    assert rerun.out == cold and "cache hit" not in rerun.err
    assert main(argv + [str(damaged)]) == 0
    hit = capsys.readouterr()
    assert hit.out == cold and "cache hit" in hit.err
    assert len(ResultStore(damaged).entries()) == 1


def test_config_write_is_atomic_and_kept(tmp_path, monkeypatch):
    rs = ResultStore(tmp_path)
    with monkeypatch.context() as m:
        def broken_replace(src, dst):
            raise OSError("interrupted")
        m.setattr(store.os, "replace", broken_replace)
        with pytest.raises(OSError):
            rs.record("a" * 16, "solve", [], 0.1, {"run": 1})
    assert list(tmp_path.iterdir()) == []
    rs.record("a" * 16, "solve", [], 0.1, {"run": 1})
    rs.record("a" * 16, "solve", [], 0.1, {"run": 2})
    assert json.loads((tmp_path / f"{'a' * 16}.config.json").read_text()) == {"run": 1}


def test_version_change_with_new_output_reruns_cold(tmp_path, monkeypatch, capsys):
    """A rerun by other code that prints other bytes writes its own file and
    leaves the first version's output untouched."""
    argv = ["solve", "--n-atoms", "4", "--lambda", "0.3", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    old_files = {p.name: p.read_text() for p in tmp_path.glob("solve-*.csv")}
    monkeypatch.setattr(store, "describe_version", lambda: "0.0.0+gother")
    monkeypatch.setattr(cli, "CSV_BANNER", "# dicke-ed csv v1 (other code)")
    assert main(argv) == 0
    rerun = capsys.readouterr()
    assert "cache hit" not in rerun.err
    assert rerun.out == first.replace("# dicke-ed csv v1", cli.CSV_BANNER, 1)
    assert rerun.out != first
    for name, text in old_files.items():
        assert (tmp_path / name).read_text() == text
    assert main(argv) == 0
    hit = capsys.readouterr()
    assert "cache hit" in hit.err and hit.out == rerun.out


def test_unusable_out_dir_exits_2_with_context(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    out_dir = blocker / "store"
    code = main(["solve", "--n-atoms", "4", "--lambda", "0.3", "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert "i/o error" in err and str(blocker) in err
