"""The A/B runner's statistics, verdict and revision helpers (``tools/ab.py``).

No benchmark runs here: the statistics are pure functions of run
results, and the revision label is read from a scratch git repository.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_quartiles_inclusive():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert ab.quartiles([1.0, 3.0]) == (1.5, 2.0, 2.5)


def test_pairs_won_follows_direction():
    base, change = [1.0, 2.0, 3.0], [0.5, 2.0, 4.0]
    assert ab.pairs_won(base, change, "lower") == 1
    assert ab.pairs_won(base, change, "higher") == 1
    assert ab.pairs_won([1.0], [1.0], "lower") == 0


def test_verdict_unresolved_when_base_spread_exceeds_bound():
    # IQR 0.4 on a median of 1.0 is wider than a 25% bound.
    base = [0.7, 0.8, 1.0, 1.2, 1.3]
    assert ab.verdict(base, [5.0] * 5, "lower", 0.25) == "unresolved"
    # Unless every run of the change beats every base run.
    assert ab.verdict(base, [0.6] * 5, "lower", 0.25) == "better"
    assert ab.verdict(base, [0.6] * 4 + [0.75], "lower", 0.25) == "unresolved"
    assert ab.verdict(base, [1.4] * 5, "higher", 0.25) == "better"


def test_verdict_worse_beyond_bound_either_direction():
    base = [1.0, 1.0, 1.01, 1.0, 0.99]
    assert ab.verdict(base, [1.3] * 5, "lower", 0.25) == "worse"
    assert ab.verdict(base, [1.2] * 5, "lower", 0.25) == "flat"
    assert ab.verdict(base, [0.7] * 5, "higher", 0.25) == "worse"


def test_verdict_better_needs_gap_and_nine_in_ten():
    base = [1.0 + 0.01 * i for i in range(10)]        # IQR 0.045
    assert ab.verdict(base, [0.8] * 10, "lower", 0.25) == "better"
    # The same medians, but the change wins only 8 pairs of 10.
    mixed = [0.8] * 8 + [2.0, 2.0]
    assert ab.pairs_won(base, mixed, "lower") == 8
    assert ab.verdict(base, mixed, "lower", 0.25) == "flat"
    # A gain inside the base's quartiles is flat, however many pairs.
    assert ab.verdict(base, [x - 0.02 for x in base], "lower", 0.25) == "flat"
    assert ab.verdict(base, [1.5] * 10, "higher", 0.25) == "better"


def test_verdict_needs_three_pairs():
    assert ab.verdict([1.0, 1.0], [0.5, 0.5], "lower", 0.25) == "unresolved"
    assert ab.verdict([1.0] * 3, [0.5] * 3, "lower", 0.25) == "better"


def test_verdict_on_a_zero_median():
    assert ab.verdict([0.0] * 3, [0.0] * 3, "lower", 0.25) == "flat"
    assert ab.verdict([0.0] * 3, [1.0] * 3, "lower", 0.25) == "worse"


@pytest.mark.parametrize("run,problems", [
    ({"correct": True, "failed": 0}, []),
    ({"correct": False, "failed": 0}, ["correct is not true"]),
    ({"correct": True, "failed": 3}, ["3 failed operations"]),
    (None, ["printed no verdict"]),
])
def test_run_problems(run, problems):
    assert ab.run_problems(run) == problems


def test_report_lines():
    spec = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    runs = {"base": [{"metrics": {"wall_s": v}} for v in (1.0, 1.0, 1.0)],
            "change": [{"metrics": {"wall_s": v}} for v in (0.5, 0.5, 0.5)]}
    header, line = ab.report("many-writers", spec, runs)
    assert header == "many-writers: 3 pairs"
    assert line.split() == ["wall_s", "base", "1", "[1,", "1]", "change",
                            "0.5", "[0.5,", "0.5]", "-50.0%", "won", "3/3",
                            "better"]


def test_revision_marks_a_dirty_tree(tmp_path):
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=ab",
             "-c", "user.email=ab@example.invalid", *args],
            check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    assert ab.revision(tmp_path) == head
    (tmp_path / "a.txt").write_text("two\n")
    assert ab.revision(tmp_path) == head + "+dirty"
    git("commit", "-q", "-am", "two")
    assert ab.revision(tmp_path) == git("rev-parse", "HEAD") != head
