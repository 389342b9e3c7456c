"""The benchmark provenance block flags uncommitted code."""

import shutil
import subprocess

import pytest

from benchmarks.bench_lib import git_dirty, provenance_block

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def git(root, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=root,
        check=True,
        capture_output=True,
    )


@pytest.fixture
def checkout(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    git(tmp_path, "add", "code.py")
    git(tmp_path, "commit", "-q", "-m", "init")
    return tmp_path


def test_clean_checkout(checkout):
    assert git_dirty(checkout) is False


def test_run_outputs_do_not_count(checkout):
    (checkout / "BENCH_search.json").write_text("{}\n")
    (checkout / "benchmarks" / "results").mkdir(parents=True)
    (checkout / "benchmarks" / "results" / "table.txt").write_text("t\n")
    assert git_dirty(checkout) is False


@pytest.mark.parametrize("change", ["modified", "untracked", "nested bench json"])
def test_code_changes_count(checkout, change):
    if change == "modified":
        (checkout / "code.py").write_text("x = 2\n")
    elif change == "untracked":
        (checkout / "new.py").write_text("y = 1\n")
    else:
        (checkout / "benchmarks").mkdir()
        (checkout / "benchmarks" / "BENCH_x.json").write_text("{}\n")
    assert git_dirty(checkout) is True


def test_outside_a_checkout(tmp_path):
    assert git_dirty(tmp_path) is None


def test_provenance_records_the_flag():
    assert "git_dirty" in provenance_block()
