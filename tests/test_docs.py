"""Documentation tests: every Python snippet in docs/ and README must run.

Extracts fenced ``python`` blocks and executes them in one shared namespace
per document (tutorial snippets build on each other), and checks that the
repository files a document names exist. Keeps the docs honest.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks(path: Path) -> list[str]:
    return _BLOCK.findall(path.read_text(encoding="utf-8"))


def _run_blocks(path: Path) -> int:
    namespace: dict = {}
    blocks = _python_blocks(path)
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"{path.name}[block {i}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - the assertion is the point
            pytest.fail(f"{path.name} block {i} failed: {exc!r}\n{block}")
    return len(blocks)


def test_tutorial_snippets_run():
    n = _run_blocks(ROOT / "docs" / "tutorial.md")
    assert n >= 6  # the tutorial is supposed to be substantial


def test_readme_snippets_run():
    n = _run_blocks(ROOT / "README.md")
    assert n >= 1


def test_docs_exist_and_are_nontrivial():
    for name in ("calibration.md", "architecture.md", "tutorial.md"):
        path = ROOT / "docs" / name
        assert path.exists(), name
        assert len(path.read_text()) > 2000, f"{name} looks stubbed"
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (ROOT / name).exists()


_TICKED = re.compile(r"`([^`\s]+)`")


def test_repository_files_named_in_docs_exist():
    # A backticked path counts when it starts in a directory of the
    # repository, of src/ or of src/repro/ (`vs/docking.py`), and a bare
    # `NAME.md` / `NAME.txt` as a file beside the document or at the root;
    # `::test` and `:line` suffixes are dropped, patterns (`bench_*.py`,
    # `seg-<seq>.col`) skipped. Runtime files (`meta.json`, `active/...`)
    # start in no such directory.
    bases = (ROOT, ROOT / "src", ROOT / "src" / "repro")
    documents = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    documents += sorted((ROOT / "docs").glob("*.md"))
    missing, checked = [], 0
    for document in documents:
        for token in _TICKED.findall(document.read_text(encoding="utf-8")):
            name = re.split(r"::|:\d", token.rstrip(".,;:"))[0]
            if re.search(r"[*<>{}$…]|\.\.\.", name):
                continue
            first, slash, _ = name.partition("/")
            if slash:
                if not first or not any((base / first).is_dir() for base in bases):
                    continue
                found = any((base / name).exists() for base in bases)
            elif name.endswith((".md", ".txt")):
                found = (ROOT / name).exists() or (document.parent / name).exists()
            else:
                continue
            checked += 1
            if not found:
                missing.append(f"{document.name}: {token}")
    assert not missing, missing
    assert checked > 50  # the rule still recognises paths
