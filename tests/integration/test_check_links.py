"""The docs gate: ``scripts/check_links.py`` flags repo paths and names that are gone."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_links.py"
_spec = importlib.util.spec_from_file_location("check_links", SCRIPT)
check_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_links)


@pytest.fixture
def repo(tmp_path):
    """A git tree with one tracked module and an ignored ``out/`` directory."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("def kept_name():\n    return KeptClass\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / ".gitignore").write_text("out/\n")
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True, capture_output=True)
    subprocess.run(["git", "add", "."], cwd=tmp_path, check=True)
    return tmp_path


def problems_in(repo: Path, text: str) -> list[str]:
    doc = repo / "docs" / "guide.md"
    doc.write_text(text)
    return check_links.check_file(doc, repo, check_links.RepoPaths(repo))


def test_a_backticked_path_that_is_not_tracked_is_reported(repo):
    assert problems_in(repo, "Intro.\n\nRun `src/pkg/gone.py` first.\n") == [
        "docs/guide.md:3: no such repo path 'src/pkg/gone.py'"
    ]


def test_tracked_files_their_directories_and_ignored_outputs_resolve(repo):
    text = "See `src/pkg/mod.py`, `src/pkg/` and `benchmarks/out/`.\n"
    assert problems_in(repo, text) == []


def test_a_fenced_block_is_checked_word_by_word(repo):
    text = "```bash\nPYTHONPATH=src python scripts/gone.py --seed 3\n```\n"
    assert problems_in(repo, text) == ["docs/guide.md:2: no such repo path 'scripts/gone.py'"]


def test_a_package_relative_module_must_exist_under_src_repro_or_tests(repo):
    for kept in ("src/repro/core/kept.py", "tests/property/test_kept.py"):
        (repo / kept).parent.mkdir(parents=True)
        (repo / kept).write_text("")
    subprocess.run(["git", "add", "."], cwd=repo, check=True)
    text = (
        "## Layer (`core/kept.py`, `core/gone.py`)\n\n"
        "**Suites** — `property/test_kept.py`, `integration/test_gone.py`.\n"
    )
    assert problems_in(repo, text) == [
        "docs/guide.md:1: no module 'core/gone.py' under src/repro/ or tests/",
        "docs/guide.md:3: no module 'integration/test_gone.py' under src/repro/ or tests/",
    ]


def test_placeholders_and_globs_are_not_paths():
    line = "`python scripts/serve.py --port 1`, `tests/<suite>/x.py`, `src/*.py`"
    assert check_links.cited_paths(line, in_fence=False) == ["scripts/serve.py"]


def test_only_readme_among_the_root_notes_describes_the_tree(tmp_path):
    assert check_links.describes_tree(tmp_path / "README.md", tmp_path)
    assert check_links.describes_tree(tmp_path / "docs" / "operations.md", tmp_path)
    assert not check_links.describes_tree(tmp_path / "CHANGES.md", tmp_path)
    assert not check_links.describes_tree(tmp_path / "ROADMAP.md", tmp_path)


def test_a_backticked_name_no_python_file_has_is_reported(repo):
    text = "Call `pkg.kept_name()` on a `KeptClass`,\nnot `pkg.vanished_name`.\n"
    assert problems_in(repo, text) == [
        "docs/guide.md:2: no Python name 'vanished_name' in the tree"
    ]


def test_only_underscored_or_camel_case_parts_of_dotted_names_are_checked():
    line = (
        "`os.path`, `HTTP`, `Document`, `wal.log`, `check_links.py`, "
        "`a.b_c()`, `InvertedIndex.load`, `f(x)`, `--seed 3`"
    )
    assert check_links.cited_names(line) == ["b_c", "InvertedIndex"]


def test_the_benchmark_readme_is_exempt_from_the_name_check(repo):
    readme = repo / "benchmarks" / "e2e" / "README.md"
    readme.parent.mkdir(parents=True)
    readme.write_text("Times `layers.vanished_probe`.\n")
    assert check_links.check_file(readme, repo, check_links.RepoPaths(repo)) == []
