"""Shared fixtures for the evaluation benchmarks.

Building an application is deterministic, so one
:class:`repro.api.Workbench` serves the whole benchmark session: builds are
memoized by spec content key, and different variants of one application
resume from the session's shared front-end (and CCured) snapshots instead
of re-running the nesC compiler.  This mirrors how the paper's evaluation
reuses one build per configuration across measurements — and it is the same
engine, and the one build API, the ``python -m repro`` CLI uses.
"""

from __future__ import annotations

import pytest

from repro.api.workbench import Workbench


@pytest.fixture(scope="session")
def workbench():
    return Workbench()


def pytest_addoption(parser):
    parser.addoption(
        "--apps", action="store", default="",
        help="Comma-separated subset of figure applications to benchmark")


@pytest.fixture(scope="session")
def selected_apps(request) -> list[str]:
    from repro.tinyos.suite import FIGURE_APPS

    raw = request.config.getoption("--apps")
    if not raw:
        return list(FIGURE_APPS)
    wanted = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = [name for name in wanted if name not in FIGURE_APPS]
    if unknown:
        raise pytest.UsageError(f"unknown applications: {unknown}")
    return wanted
