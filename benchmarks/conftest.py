"""Shared infrastructure for the figure-reproduction benchmarks.

Each benchmark regenerates one paper figure's series, times the run via
pytest-benchmark, prints the rows (visible with ``pytest -s`` or in the
saved reports), and writes the same text to ``benchmarks/results/<name>.txt``
so EXPERIMENTS.md claims can be re-checked without rerunning.  Figure
reports are deterministic, so rewriting them leaves the tree clean unless
a figure changed.

The scale benchmarks' timing records (``BENCH_*.json`` and their
``BENCH_*.txt`` tables) differ on every run, so they go to a temporary
directory unless pytest is given ``--record``, which writes them into
``benchmarks/results/`` for committing or for the CI regression gate.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--record", action="store_true", default=False,
        help="write the scale benchmarks' BENCH_* records into "
             "benchmarks/results/ instead of a temporary directory")


@pytest.fixture(scope="session")
def bench_dir(request, tmp_path_factory) -> pathlib.Path:
    """Directory the scale benchmarks write their ``BENCH_*`` records to."""
    if request.config.getoption("--record"):
        RESULTS_DIR.mkdir(exist_ok=True)
        return RESULTS_DIR
    return tmp_path_factory.mktemp("bench-records")


@pytest.fixture
def report(bench_dir):
    """Callable ``report(name, text)``: print and persist a report.

    ``BENCH_*`` tables go to :func:`bench_dir`, figure reports to
    ``benchmarks/results/``.
    """
    def _report(name: str, text: str) -> None:
        if name.startswith("BENCH_"):
            directory = bench_dir
        else:
            RESULTS_DIR.mkdir(exist_ok=True)
            directory = RESULTS_DIR
        (directory / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)
    return _report


@pytest.fixture
def once(benchmark):
    """Run a figure generator exactly once under pytest-benchmark timing.

    Figure pipelines are deterministic simulations taking 0.1-10 s; classic
    multi-round statistical timing would quintuple the suite's cost for no
    extra information.
    """
    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)
    return _once
