"""Session-scoped fixtures shared across the test suite.

Building and transforming applications is deterministic but not free, so
artifacts that many tests inspect (the flattened BlinkTask program, the
instrumented Oscilloscope program, the fully optimized builds) are built
once per session.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.api.workbench import Workbench
from repro.ccured.config import CCuredConfig, MessageStrategy
from repro.ccured.instrument import cure
from repro.nesc.flatten import flatten_application
from repro.nesc.hwrefactor import refactor_hardware_accesses
from repro.tinyos import suite
from repro.toolchain.variants import BASELINE, SAFE_FLID, SAFE_OPTIMIZED

from helpers import tiny_application


@pytest.fixture(scope="session")
def blink_program():
    """The flattened (uninstrumented) BlinkTask program."""
    return suite.build_program("BlinkTask_Mica2", suppress_norace=True)


@pytest.fixture(scope="session")
def oscilloscope_program():
    """The flattened (uninstrumented) Oscilloscope program."""
    return suite.build_program("Oscilloscope_Mica2", suppress_norace=True)


@pytest.fixture(scope="session")
def cured_oscilloscope():
    """Oscilloscope after hardware refactoring and CCured instrumentation."""
    program = suite.build_program("Oscilloscope_Mica2", suppress_norace=True)
    refactor_hardware_accesses(program)
    result = cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                                        run_optimizer=False))
    return result


@pytest.fixture(scope="session")
def session_workbench():
    """One Workbench for the session's shared builds (results are shared:
    treat them as read-only)."""
    return Workbench()


@pytest.fixture(scope="session")
def blink_baseline_build(session_workbench):
    """BlinkTask built with the unsafe, unoptimized baseline variant."""
    return session_workbench.build_result("BlinkTask_Mica2", BASELINE)


@pytest.fixture(scope="session")
def blink_safe_build(session_workbench):
    """BlinkTask built safe (FLIDs) without whole-program optimization."""
    return session_workbench.build_result("BlinkTask_Mica2", SAFE_FLID)


@pytest.fixture(scope="session")
def blink_optimized_build(session_workbench):
    """BlinkTask built with the full Safe TinyOS pipeline."""
    return session_workbench.build_result("BlinkTask_Mica2", SAFE_OPTIMIZED)


@pytest.fixture(scope="session")
def oscilloscope_optimized_build(session_workbench):
    """Oscilloscope built with the full Safe TinyOS pipeline."""
    return session_workbench.build_result("Oscilloscope_Mica2",
                                          SAFE_OPTIMIZED)


@pytest.fixture(scope="session")
def tiny_app_program():
    """The flattened two-component test application from tests/helpers.py."""
    return flatten_application(tiny_application(), suppress_norace=True)
