import subprocess

from dicke_ed import store
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
