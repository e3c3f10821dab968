import importlib.util
import json
import sys
from pathlib import Path

import pytest

from specrad.families import OperatorFamily

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PERFBENCH = TOOLS.parent / "perfbench"


def _tool(name, folder=TOOLS):
    loader = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _bench_record():
    sys.path.insert(0, str(TOOLS))  # bench_record imports fixed_reports by name
    try:
        return _tool("bench_record")
    finally:
        sys.path.remove(str(TOOLS))


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


def test_every_traced_name_resolves_to_a_callable_in_specrad():
    """The benchmark's tracer wraps specrad functions and ``OperatorFamily``
    methods by name, so a refactor that renames or moves one would break
    its span.  Each ``(module, attribute)`` of ``FUNCTIONS`` must be a
    callable in that specrad module, and each ``FAMILY_METHODS`` name a
    callable defined on the class itself, where the tracer looks it up.
    The tracer is read here, not edited."""
    tracer = _tool("tracer", PERFBENCH)
    assert tracer.FUNCTIONS and tracer.FAMILY_METHODS
    for module, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"specrad.{module}"), attr, None)), \
            f"specrad.{module}.{attr}"
    for attr, _ in tracer.FAMILY_METHODS:
        assert callable(OperatorFamily.__dict__.get(attr)), f"OperatorFamily.{attr}"


FIXTURE_MODULE = '''"""Module docstring,
on two lines."""

import math  # a comment after code

# a comment line


class Shape:
    """Class docstring."""

    sides = 4

    def area(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string value
        on two lines"""
        return math.pi, text
'''


def test_line_counts_leave_out_docstrings_comments_and_blanks(tmp_path, capsys):
    """Code lines count every line with a token other than a comment, a
    multi-line string value too, and leave out docstrings and blanks; the
    ``all`` line sums the modules, and a module that a checkout lacks reads
    0 there."""
    tool = _tool("line_counts")
    assert tool.counts(FIXTURE_MODULE) == (20, 7)
    head, base = tmp_path / "head", tmp_path / "base"
    for root, extra in ((head, "x = 1\n"), (base, None)):
        (root / "src" / "pkg").mkdir(parents=True)
        (root / "src" / "pkg" / "shape.py").write_text(FIXTURE_MODULE, encoding="utf-8")
        if extra:
            (root / "src" / "pkg" / "extra.py").write_text(extra, encoding="utf-8")
    assert tool.main([str(head)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pkg/extra.py total=1 code=1", "pkg/shape.py total=20 code=7", "all total=21 code=8"]
    assert tool.main([str(head), str(base)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pkg/extra.py total 0 -> 1, code 0 -> 1", "pkg/shape.py total 20 -> 20, code 7 -> 7",
        "all total 20 -> 21, code 7 -> 8"]


def test_fixed_reports_print_each_sweeps_verdicts_beside_the_base(monkeypatch, capsys):
    """With a base checkout, each sweep's per-chain pass/fail/inconclusive
    counts are printed after the digests, as ``same verdicts`` or, where a
    count moved or a side lacks a chain, ``VERDICTS DIFFER`` with the base's
    counts in parentheses; a report that is no sweep gets no such line."""
    tool = _tool("fixed_reports")
    run = {"runs": [{"chain_id": "F1", "summary": {"trials": 4, "pass": 4, "fail": 0,
                                                    "inconclusive": 0, "min_slack": 0.5}},
                    {"chain_id": "F2", "summary": {"trials": 4, "pass": 3, "fail": 0,
                                                    "inconclusive": 1, "min_slack": 0.0}}]}
    assert tool.verdicts(run) == {"F1": "4/0/0", "F2": "3/0/1"}
    head = {"F1": "4/0/0", "F2": "3/0/1"}
    assert tool.verdict_line("s", head, dict(head)) == "same verdicts s F1=4/0/0 F2=3/0/1"
    assert tool.verdict_line("s", head, {"F1": "4/0/0", "F2": "4/0/0", "F3": "1/0/0"}) == (
        "VERDICTS DIFFER s F1=4/0/0 F2=3/0/1(base 4/0/0) F3=-(base 1/0/0)")
    assert tool.verdict_line("s", head, None) == (
        "VERDICTS DIFFER s F1=4/0/0(base -) F2=3/0/1(base -)")

    def doc(sha, **counts):
        return {"wall_s": 0.1, "exit_code": 0, "stdout_sha256": sha, "out_sha256": sha,
                **counts}

    fake = {"head": {"catalog": doc("a"), "sweep_x": doc("b", verdicts=head)},
            "base": {"catalog": doc("a"), "sweep_x": doc("c", verdicts=head)}}
    monkeypatch.setattr(tool, "reports", lambda root: fake[root.name])
    assert tool.main(["head", "base"]) == 0
    assert capsys.readouterr().out.splitlines()[-5:] == [
        "identical catalog stdout_sha256", "identical catalog out_sha256",
        "DIFFERS sweep_x stdout_sha256", "DIFFERS sweep_x out_sha256",
        "same verdicts sweep_x F1=4/0/0 F2=3/0/1"]
