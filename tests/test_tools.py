import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _bench_record():
    sys.path.insert(0, str(TOOLS))  # bench_record imports fixed_reports by name
    try:
        loader = importlib.util.spec_from_file_location("bench_record", TOOLS / "bench_record.py")
        module = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def test_bench_record_refuses_spent_seeds(tmp_path, capsys):
    """A seed that a BENCH_*.json of the last checkout lists is refused,
    naming the file, before any benchmark runs; --seeds has no default."""
    tool = _bench_record()
    (tmp_path / "BENCHMARK.json").write_text("{}", encoding="utf-8")
    (tmp_path / "BENCH_7.json").write_text(json.dumps({"seeds": [1120, 1121]}),
                                           encoding="utf-8")
    assert tool.spent([1119, 1120], tmp_path) == "seed 1120 is spent: BENCH_7.json lists it"
    assert tool.spent([1141, 1142], tmp_path) is None
    target = f"{tmp_path}={tmp_path / 'out.json'}"
    for argv in ([target, "--seeds", "1118-1121"], [target]):
        with pytest.raises(SystemExit) as exc:
            tool.main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "seed 1120 is spent: BENCH_7.json lists it" in err
    assert "--seeds" in err.splitlines()[-1]
    assert not (tmp_path / "out.json").exists()


def test_bench_record_refuses_a_checkout_without_git_metadata(tmp_path, monkeypatch):
    """A checkout whose commit git cannot name is refused before any
    benchmark runs, with the command that makes a checkout that has one."""
    tool = _bench_record()
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    bench = {"command": [], "run_seconds": 1, "workloads": [], "end_to_end": []}
    (checkout / "BENCHMARK.json").write_text(json.dumps(bench), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        tool.commit_of(checkout)
    assert "git worktree add --detach" in str(exc.value.code)
    with pytest.raises(SystemExit) as exc:
        tool.main([f"{checkout}={tmp_path / 'out.json'}", "--seeds", "1"])
    assert f"{checkout} has no git metadata" in str(exc.value.code)
    assert not (tmp_path / "out.json").exists()
