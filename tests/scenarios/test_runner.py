"""Verdict classification, scenario specs/records, and the end-to-end
matrix: baseline silently corrupts where the safe build detects."""

import dataclasses

import pytest

from repro.api.cli import UsageError, format_scenario_record, resolve_faults
from repro.api.records import ScenarioRecord
from repro.api.specs import ScenarioSpec
from repro.api.workbench import Workbench, run_network
from repro.avrora import interp
from repro.avrora.engine import _FunctionCompiler
from repro.scenarios import runner as runner_module
from repro.scenarios.faults import (
    KILL_HALT_CODE,
    BitFlipFault,
    FaultPlan,
    NodeKillFault,
    PacketInjectFault,
    PayloadCorruptFault,
)
from repro.scenarios.runner import ScenarioRunner, classify, node_fingerprint

BIT_FLIP_LABEL = "bit-flip@RadioCRCPacketC__radio_rx_ptr"


# -- classify(): the verdict lattice on synthetic nodes -----------------------

class _State:
    def __init__(self):
        self.value = 0
        self.changes = 0
        self.red_toggles = 0


class _StubNode:
    def __init__(self, *, failures=0, halted=False, halt_code=None,
                 violations=0, statements=1000):
        self.failures = [object()] * failures
        self.halted = halted
        self.halt_code = halt_code
        self.memory_violations = violations
        self.leds = type("L", (), {"state": _State()})()
        self.radio = type("R", (), {"packets_sent": [],
                                    "packets_received": 0,
                                    "packets_dropped": 0})()
        self.uart = type("U", (), {"sent_bytes": bytearray()})()
        self.interpreter = type(
            "I", (), {"statements_executed": statements})()


class _StubNetwork:
    def __init__(self, *nodes):
        self.nodes = list(nodes)


def _golden(count=2):
    return tuple(node_fingerprint(_StubNode()) for _ in range(count))


class TestClassify:
    def test_new_failure_reports_mean_detected(self):
        network = _StubNetwork(_StubNode(failures=1), _StubNode())
        assert classify(network, _golden(), BitFlipFault()) == "detected"

    def test_detected_outranks_crash(self):
        network = _StubNetwork(
            _StubNode(failures=1, halted=True, halt_code=0x01), _StubNode())
        assert classify(network, _golden(), BitFlipFault()) == "detected"

    def test_silent_halt_is_a_crash(self):
        network = _StubNetwork(
            _StubNode(halted=True, halt_code=0x01), _StubNode())
        assert classify(network, _golden(), BitFlipFault()) == "crash"

    def test_induced_kill_is_not_a_crash(self):
        network = _StubNetwork(
            _StubNode(),
            _StubNode(halted=True, halt_code=KILL_HALT_CODE))
        fault = NodeKillFault(node=1)
        assert classify(network, _golden(), fault) == "benign"

    def test_state_fault_divergence_is_silent_corruption(self):
        # Same inputs, different behaviour: any fingerprint drift counts.
        network = _StubNetwork(_StubNode(statements=1001), _StubNode())
        assert classify(network, _golden(),
                        BitFlipFault()) == "silent-corruption"

    def test_input_fault_divergence_alone_is_benign(self):
        # A crafted packet changes the traffic pattern by design; mere
        # behavioural drift on any node is expected, not corruption.
        network = _StubNetwork(_StubNode(statements=1001),
                               _StubNode(statements=2000))
        fault = PacketInjectFault(node=0)
        assert classify(network, _golden(), fault) == "benign"

    def test_input_fault_absorbed_violation_is_silent_corruption(self):
        network = _StubNetwork(_StubNode(), _StubNode(violations=3))
        fault = PacketInjectFault(node=0)
        assert classify(network, _golden(), fault) == "silent-corruption"

    def test_identical_run_is_benign(self):
        network = _StubNetwork(_StubNode(), _StubNode())
        assert classify(network, _golden(), BitFlipFault()) == "benign"


# -- ScenarioSpec -------------------------------------------------------------

class TestScenarioSpec:
    def _spec(self, **kwargs):
        defaults = dict(app="Surge_Mica2",
                        variants=("baseline", "safe-optimized"),
                        plan=FaultPlan(faults=(BitFlipFault(),)))
        defaults.update(kwargs)
        return ScenarioSpec(**defaults)

    def test_plan_must_fit_the_network(self):
        plan = FaultPlan(faults=(NodeKillFault(node=5),))
        with pytest.raises(ValueError, match="targets node 5"):
            self._spec(plan=plan, node_count=2)

    def test_at_least_one_registered_variant(self):
        with pytest.raises(ValueError, match="at least one variant"):
            self._spec(variants=())
        with pytest.raises(KeyError):
            self._spec(variants=("warp-speed",))

    def test_round_trip(self):
        spec = self._spec(seconds=2.0, loss=0.1, seed=3)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_content_key_ignores_workers_but_not_the_plan(self):
        """An older dictionary's ``workers`` key loads and keys the same."""
        spec = self._spec(node_count=2)
        legacy = ScenarioSpec.from_dict({**spec.to_dict(), "workers": 2})
        assert legacy.content_key() == spec.content_key()
        reseeded = dataclasses.replace(
            spec, plan=FaultPlan(faults=(BitFlipFault(),), seed=1))
        assert reseeded.content_key() != spec.content_key()


# -- ScenarioRecord + CLI formatting (no simulation needed) -------------------

def _record():
    return ScenarioRecord(
        app="Surge_Mica2", content_key="k" * 16, node_count=2, seconds=2.0,
        topology="chain", seed=0,
        variants=("baseline", "safe-optimized"),
        faults=(BIT_FLIP_LABEL, "payload-corrupt"),
        verdicts=(("silent-corruption", "detected"), ("benign", "benign")),
        details={f"{BIT_FLIP_LABEL}|baseline": {"verdict":
                                                "silent-corruption"}},
        golden={"runs": 2, "cache_hits": 0})


class TestScenarioRecord:
    def test_round_trip(self):
        record = _record()
        assert ScenarioRecord.from_dict(record.to_dict()) == record

    def test_cell_lookup_and_counts(self):
        record = _record()
        assert record.verdict(BIT_FLIP_LABEL, "baseline") \
            == "silent-corruption"
        assert record.verdict("payload-corrupt", "safe-optimized") == "benign"
        assert record.counts("baseline") == {"silent-corruption": 1,
                                             "benign": 1}

    def test_table_renders_every_cell(self):
        table = format_scenario_record(_record())
        for needle in ("baseline", "safe-optimized", BIT_FLIP_LABEL,
                       "silent-corruption", "detected",
                       "golden runs: 2 executed"):
            assert needle in table

    def test_resolve_faults_shorthands_and_errors(self):
        labels = [fault.label()
                  for fault in resolve_faults("bit-flip,payload", 2)]
        assert labels == [BIT_FLIP_LABEL, "payload-corrupt"]
        with pytest.raises(UsageError):
            resolve_faults("", 2)
        with pytest.raises(KeyError):
            resolve_faults("meteor", 2)


# -- End to end: the acceptance matrix ----------------------------------------

@pytest.fixture(scope="module")
def bench():
    return Workbench()


@pytest.fixture(scope="module")
def surge_spec():
    return ScenarioSpec(
        app="Surge_Mica2", variants=("baseline", "safe-optimized"),
        plan=FaultPlan(faults=(BitFlipFault(), PayloadCorruptFault())),
        seconds=2.0)


@pytest.fixture(scope="module")
def surge_record(bench, surge_spec):
    return bench.run_scenario(surge_spec)


class TestScenarioMatrix:
    def test_baseline_silently_corrupts_where_safe_detects(self,
                                                           surge_record):
        assert surge_record.verdict(BIT_FLIP_LABEL, "baseline") \
            == "silent-corruption"
        assert surge_record.verdict(BIT_FLIP_LABEL, "safe-optimized") \
            == "detected"

    def test_details_show_the_mechanism(self, surge_record):
        absorbed = surge_record.details[f"{BIT_FLIP_LABEL}|baseline"]
        assert absorbed["memory_violations"] > 0
        assert absorbed["failures"] == 0
        caught = surge_record.details[f"{BIT_FLIP_LABEL}|safe-optimized"]
        assert caught["failures"] >= 1

    def test_golden_runs_once_per_variant(self, surge_record):
        assert surge_record.golden == {"runs": 2, "cache_hits": 0}

    def test_record_is_memoized_by_content_key(self, bench, surge_spec,
                                               surge_record):
        again = bench.run_scenario(dataclasses.replace(surge_spec))
        assert again is surge_record

    def test_record_round_trips(self, surge_record):
        assert ScenarioRecord.from_dict(surge_record.to_dict()) \
            == surge_record

    def test_matrix_is_reproduced_by_a_fresh_runner(self, bench, surge_spec,
                                                    surge_record):
        """Verdicts and details are pure functions of the spec — a fresh
        runner, with an empty golden cache, reproduces them exactly."""
        outcome = ScenarioRunner(bench).run(surge_spec)
        assert outcome["verdicts"] == surge_record.verdicts
        assert outcome["details"] == surge_record.details

    def test_variant_runs_share_one_lowering(self, bench, surge_spec,
                                             surge_record, monkeypatch):
        """A variant's golden and faulted runs share one code cache: each
        function is lowered once per variant, and the matrix equals the
        one a lowering per run gives."""
        lowered = []
        compile_ = _FunctionCompiler.compile

        def counting(compiler):
            lowered.append((id(compiler.program), compiler.func.name))
            return compile_(compiler)

        monkeypatch.setattr(_FunctionCompiler, "compile", counting)
        monkeypatch.setattr(interp, "DEFAULT_ENGINE", "compiled")
        shared = ScenarioRunner(bench)
        outcome = shared.run(surge_spec)
        assert len(set(lowered)) == len(lowered) == shared.lowerings
        assert len({program for program, _ in lowered}) == 2

        once = len(lowered)
        del lowered[:]

        def a_cache_per_run(program, **kwargs):
            kwargs["code_cache"] = None
            return run_network(program, **kwargs)

        monkeypatch.setattr(runner_module, "run_network", a_cache_per_run)
        separate = ScenarioRunner(bench).run(surge_spec)
        assert len(lowered) > 2 * once
        assert outcome["verdicts"] == separate["verdicts"] \
            == surge_record.verdicts
        assert outcome["details"] == separate["details"] \
            == surge_record.details

    def test_second_plan_reuses_golden_fingerprints(self, bench,
                                                    surge_spec,
                                                    surge_record):
        follow_up = dataclasses.replace(
            surge_spec, plan=FaultPlan(faults=(PayloadCorruptFault(),),
                                       seed=1))
        record = bench.run_scenario(follow_up)
        assert record.golden == {"runs": 0, "cache_hits": 2}
