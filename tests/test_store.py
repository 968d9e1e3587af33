import subprocess

import pytest

from dicke_ed import cli, store
from dicke_ed.cli import main
from dicke_ed.store import ResultStore


def test_records_spawn_git_at_most_once(tmp_path, monkeypatch):
    calls = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(store.subprocess, "run", counting_run)
    store.describe_version.cache_clear()
    rs = ResultStore(tmp_path)
    first = rs.record("a" * 16, "solve", [], 0.1, {"command": "solve"})
    second = rs.record("b" * 16, "solve", [], 0.2, {"command": "solve"})
    assert len(calls) <= 1
    assert first["version"] == second["version"]
    assert len(rs.entries()) == 2


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
