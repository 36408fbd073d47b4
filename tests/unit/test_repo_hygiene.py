"""Repo hygiene: generated Python files must never be committed.

``__pycache__`` directories, ``*.pyc`` files and ``*.egg-info/``
packaging metadata appear next to the sources on every run or
install; if one slips into the git index it churns every diff and can
shadow a deleted module or go stale.  This test fails the suite the
moment the index contains one, and checks that ``.gitignore`` keeps
them out in the first place.
"""

import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def git_ls_files():
    try:
        result = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git unavailable")
    if result.returncode != 0:
        pytest.skip("not a git checkout")
    return result.stdout.splitlines()


def test_no_bytecode_in_git_index():
    tracked = git_ls_files()
    offenders = [
        path
        for path in tracked
        if "__pycache__" in path
        or ".egg-info/" in path
        or path.endswith((".pyc", ".pyo"))
    ]
    assert not offenders, (
        "generated files are committed — `git rm -r --cached` these: "
        f"{offenders}"
    )


def test_gitignore_covers_bytecode():
    gitignore = (REPO_ROOT / ".gitignore").read_text().splitlines()
    patterns = {line.strip() for line in gitignore}
    for required in ("__pycache__/", "*.pyc", "*.egg-info/"):
        assert required in patterns, f".gitignore lacks {required!r}"
