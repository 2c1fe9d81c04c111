#!/usr/bin/env python
"""Fail on broken intra-repository Markdown links and stale repo paths.

Runs as the docs-links CI job: ``python scripts/check_links.py``.  Scans
every tracked ``*.md`` file for inline links and validates the ones that
point inside the repository:

* relative path links (``[text](docs/operations.md)``, ``(../Dockerfile)``)
  must name an existing file or directory, resolved against the linking
  file's location;
* fragment links to Markdown files (``operations.md#tuning``) must also
  match a heading in the target file (GitHub's anchor slugging);
* bare in-page fragments (``(#layer-0)``) must match a heading in the same
  file;
* every word of a backticked span or a fenced code block that starts with a
  top-level repo directory (``src/``, ``benchmarks/``, ``scripts/``,
  ``tests/``, ``docs/``, ``examples/``, ``.github/``) must name a tracked
  file, a directory holding one, or a git-ignored output path.  This one
  covers ``README.md`` and the Markdown below the root; the other root notes
  (``CHANGES.md``, ``ROADMAP.md``, the paper notes) are exempt: they record
  history and other repositories, and name what was deleted on purpose;
* in the same files, a backticked package-relative module path
  (``core/server.py``, ``property/test_engine_properties.py`` -- how the
  architecture map names its layers and their suites) must name a tracked
  file under ``src/repro/`` or ``tests/``;
* in the same files, a backticked dotted Python name (``name``, ``a.b``,
  either with ``()``) must name something the code still has: each of its
  parts that contains an underscore or is CamelCase must occur as a word in
  a tracked ``*.py`` file.  File names (``check_links.py``) are the path
  check's business.  ``benchmarks/e2e/README.md`` is exempt: only a change
  to the benchmark itself may edit it;
* each ``CHANGES.md`` entry (a ``PR <n>:`` line up to the next one)
  numbered 35 or later is at most 2,048 bytes; earlier entries stay as
  history.

External links (``http://``, ``https://``, ``mailto:``) are out of scope --
this gate is for the promise the docs make about *this* tree, which every
refactor can silently break.

Exit status: 0 when all links, paths and names resolve, 1 otherwise (each
problem printed as ``file:line: message``).
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

# [text](target) -- deliberately simple: no reference-style links in this
# repo, and nested brackets/parens in URLs don't occur in our docs.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
_EXTERNAL = ("http://", "https://", "mailto:")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_REPO_PATH = re.compile(r"(?:src|benchmarks|scripts|tests|docs|examples|\.github)/[\w./-]*")
_PACKAGE_PATH = re.compile(
    r"(?:lexicon|textsearch|crypto|core|service|experiments|property|integration)"
    r"/[\w./-]*\.py\b"
)
#: Where a package-relative module path may live.
_PACKAGE_ROOTS = ("src/repro/", "tests/")
_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?")
_FILE_SUFFIXES = {"py", "md", "json", "jsonl", "log", "bin", "tmp", "txt", "toml", "yml", "yaml"}
#: Tree-describing files whose names are not checked (see the module docstring).
_NAME_EXEMPT = {"benchmarks/e2e/README.md"}
_CHANGES_ENTRY = re.compile(r"^PR (\d+):", re.MULTILINE)
#: The first CHANGES.md entry held to ``ENTRY_BYTES``.
FIRST_CAPPED_ENTRY, ENTRY_BYTES = 35, 2048


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces to dashes."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def headings_of(path: Path) -> set[str]:
    slugs: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if match:
            slugs.add(github_slug(match.group(1)))
    return slugs


def tracked_markdown(root: Path) -> list[Path]:
    """Tracked Markdown files still in the working tree (a tracked file
    deleted there has nothing to check; links to it are still broken)."""
    listing = subprocess.run(
        ["git", "ls-files", "*.md", "**/*.md"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return [root / name for name in listing.stdout.split() if (root / name).is_file()]


def describes_tree(path: Path, root: Path) -> bool:
    """Whether ``path``'s repo paths are checked: README and docs below root."""
    return path.parent != root or path.name == "README.md"


class RepoPaths:
    """What a doc may cite: tracked files, their directories, ignored
    outputs, and the words of tracked Python files."""

    def __init__(self, root: Path) -> None:
        self.root = root
        listing = subprocess.run(
            ["git", "ls-files"], cwd=root, capture_output=True, text=True, check=True
        )
        self.known = set()
        self.words: set[str] = set()
        for name in listing.stdout.splitlines():
            parts = name.split("/")
            self.known.update("/".join(parts[:i]) for i in range(1, len(parts) + 1))
            if name.endswith(".py") and (root / name).is_file():
                source = (root / name).read_text(encoding="utf-8", errors="replace")
                self.words.update(re.findall(r"\w+", source))

    def exists(self, cited: str) -> bool:
        cited = cited.rstrip(".")
        if cited.rstrip("/") in self.known:
            return True
        # A trailing slash stays: ignore patterns like ``out/`` match
        # directories only, and an output directory need not exist.
        ignored = subprocess.run(
            ["git", "check-ignore", "-q", "--no-index", cited], cwd=self.root
        )
        return ignored.returncode == 0

    def has_module(self, cited: str) -> bool:
        return any(root + cited in self.known for root in _PACKAGE_ROOTS)


def cited_paths(line: str, in_fence: bool) -> list[str]:
    """Repo paths a line cites: words of its code spans, or of a fenced line."""
    spans = [line] if in_fence else _CODE_SPAN.findall(line)
    return [
        match.group(0)
        for span in spans
        for word in span.split()
        if (match := _REPO_PATH.match(word.strip("'\"(),;")))
        and not re.search(r"[*?<>{}$]", word)
    ]


def cited_modules(line: str) -> list[str]:
    """Package-relative module paths (``core/server.py``) a line's code spans cite."""
    return [
        match.group(0)
        for span in _CODE_SPAN.findall(line)
        for word in span.split()
        if (match := _PACKAGE_PATH.match(word.strip("'\"(),;")))
    ]


def cited_names(line: str) -> list[str]:
    """The underscored or CamelCase parts of a line's dotted-name code spans."""
    names = []
    for span in _CODE_SPAN.findall(line):
        if not _DOTTED_NAME.fullmatch(span):
            continue
        parts = span.removesuffix("()").split(".")
        if len(parts) > 1 and parts[-1] in _FILE_SUFFIXES:
            continue
        names += [
            part
            for part in parts
            if "_" in part or (not part.isupper() and any(c.isupper() for c in part[1:]))
        ]
    return names


def check_file(path: Path, root: Path, paths: RepoPaths | None = None) -> list[str]:
    problems: list[str] = []
    check_names = paths is not None and path.relative_to(root).as_posix() not in _NAME_EXEMPT
    in_fence = False
    for line_number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        where = f"{path.relative_to(root)}:{line_number}"
        if paths is not None:
            for cited in cited_paths(line, in_fence):
                if not paths.exists(cited):
                    problems.append(f"{where}: no such repo path {cited!r}")
        if in_fence:
            continue
        if paths is not None:
            for cited in cited_modules(line):
                if not paths.has_module(cited):
                    problems.append(f"{where}: no module {cited!r} under src/repro/ or tests/")
        if check_names:
            for name in cited_names(line):
                if name not in paths.words:
                    problems.append(f"{where}: no Python name {name!r} in the tree")
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL):
                continue
            if target.startswith("#"):
                if github_slug(target[1:]) not in headings_of(path):
                    problems.append(f"{where}: no heading for anchor {target!r}")
                continue
            raw_path, _, fragment = target.partition("#")
            resolved = (path.parent / raw_path).resolve()
            if not resolved.exists():
                problems.append(f"{where}: broken link {target!r} "
                                f"(no such path {raw_path!r})")
                continue
            if root.resolve() not in resolved.parents and resolved != root.resolve():
                problems.append(f"{where}: link {target!r} escapes the repository")
                continue
            if fragment and resolved.suffix == ".md":
                if github_slug(fragment) not in headings_of(resolved):
                    problems.append(
                        f"{where}: {raw_path!r} has no heading for "
                        f"anchor #{fragment}"
                    )
    return problems


def oversized_entries(text: str) -> list[str]:
    """The CHANGES.md entries from ``FIRST_CAPPED_ENTRY`` on that exceed
    ``ENTRY_BYTES``, measured without their trailing blank lines."""
    heads = list(_CHANGES_ENTRY.finditer(text))
    ends = [head.start() for head in heads[1:]] + [len(text)]
    problems = []
    for head, end in zip(heads, ends):
        size = len(text[head.start() : end].rstrip("\n").encode("utf-8")) + 1
        if int(head.group(1)) >= FIRST_CAPPED_ENTRY and size > ENTRY_BYTES:
            line = text.count("\n", 0, head.start()) + 1
            problems.append(
                f"CHANGES.md:{line}: PR {head.group(1)} entry is {size} bytes, over {ENTRY_BYTES}"
            )
    return problems


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    problems: list[str] = []
    files = tracked_markdown(root)
    paths = RepoPaths(root)
    for path in files:
        problems.extend(check_file(path, root, paths if describes_tree(path, root) else None))
    problems.extend(oversized_entries((root / "CHANGES.md").read_text(encoding="utf-8")))
    for problem in problems:
        print(problem)
    print(f"checked {len(files)} markdown files: "
          f"{'OK' if not problems else f'{len(problems)} broken link(s), path(s) or name(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
