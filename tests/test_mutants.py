"""The committed mutant list (``tests/mutants.json``, run by
``tests/run_mutants.py``) cannot rot quietly: each snippet occurs exactly
once in today's source, and each test named to kill it is collected."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


def collected(node_id: str) -> bool:
    """Whether pytest collects ``path::name``: a top-level ``test_``
    function of a ``test_*.py`` file under the test paths."""
    path, _, name = node_id.partition("::")
    file = ROOT / path
    if not (path.startswith(("tests/", "bench/")) and file.name.startswith("test_") and name.startswith("test_")):
        return False
    tree = ast.parse(file.read_text()) if file.is_file() else ast.Module(body=[])
    return any(isinstance(node, ast.FunctionDef) and node.name == name for node in tree.body)


def test_each_mutant_applies_once_and_names_collected_tests():
    names = [mutant["name"] for mutant in MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS:
        assert (ROOT / mutant["file"]).read_text().count(mutant["snippet"]) == 1, mutant["name"]
        assert mutant["replacement"] != mutant["snippet"], mutant["name"]
        assert mutant["tests"] and all(map(collected, mutant["tests"])), mutant["name"]


def test_changed_runs_only_the_mutants_of_the_files_that_differ(monkeypatch):
    import run_mutants

    ran = []
    monkeypatch.setattr(run_mutants, "changed_files", lambda rev: {"src/latticefl/compress.py"} if rev == "REV" else set())
    monkeypatch.setattr(run_mutants, "run", lambda mutant, timeout: ran.append(mutant["name"]) or "killed")
    assert run_mutants.main(["--changed", "REV"]) == 0
    assert ran == [mutant["name"] for mutant in MUTANTS if mutant["file"] == "src/latticefl/compress.py"]
    assert len(ran) >= 5
