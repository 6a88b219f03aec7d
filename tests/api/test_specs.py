"""Spec validation, JSON round-trips and content-key stability."""

import json

import pytest

from repro.api.specs import (
    BuildSpec,
    ScenarioSpec,
    SimSpec,
    SweepSpec,
    variant_pass_keys,
)
from repro.scenarios.faults import BitFlipFault, FaultPlan
from repro.tinyos.suite import FIGURE_APPS
from repro.toolchain.variants import all_variant_names

#: ``to_dict()`` forms written while specs still carried the settings of
#: the removed multi-process kernel (``workers``, ``chaos``), with the
#: content keys computed for them then.  Content keys never covered those
#: settings, so artifact-store entries written with them must still hit.
LEGACY_SIM = {
    "kind": "sim", "schema": 2, "app": "Surge_Mica2", "variant": "baseline",
    "node_count": 4, "seconds": 2.0, "traffic": "default",
    "topology": "chain", "loss": 0.1, "seed": 3, "workers": 2,
    "plan_cache": None, "chaos": {"kills": [[1, 3]], "seed": 0}}
LEGACY_SIM_KEY = "36c86534d3f26dd4"
LEGACY_SCENARIO = {
    "kind": "scenario", "schema": 2, "app": "Surge_Mica2",
    "variants": ["baseline", "safe-optimized"],
    "plan": {"seed": 1, "faults": [{
        "kind": "bit_flip", "node": 0,
        "object": "RadioCRCPacketC__radio_rx_ptr", "offset": 0, "bit": 5,
        "at_ms": 300}]},
    "node_count": 2, "seconds": 2.0, "traffic": "default",
    "topology": "chain", "loss": 0.0, "seed": 0, "workers": 2,
    "plan_cache": None}
LEGACY_SCENARIO_KEY = "c1a0b2a4b9612bf4"

#: ``to_dict()`` forms written while specs carried the directory of the
#: removed persistent lowering-plan store.  The directory never entered
#: the content key, so they name the same simulations as the dicts above.
PLAN_STORE_SIM = {
    "kind": "sim", "schema": 2, "app": "Surge_Mica2", "variant": "baseline",
    "node_count": 4, "seconds": 2.0, "traffic": "default",
    "topology": "chain", "loss": 0.1, "seed": 3, "plan_cache": "/tmp/plans"}
PLAN_STORE_SCENARIO = {
    "kind": "scenario", "schema": 2, "app": "Surge_Mica2",
    "variants": ["baseline", "safe-optimized"],
    "plan": LEGACY_SCENARIO["plan"],
    "node_count": 2, "seconds": 2.0, "traffic": "default",
    "topology": "chain", "loss": 0.0, "seed": 0, "plan_cache": "/tmp/plans"}


class TestBuildSpec:
    def test_json_round_trip(self):
        spec = BuildSpec(app="BlinkTask_Mica2", variant="safe-flid")
        wire = json.dumps(spec.to_dict())
        assert BuildSpec.from_dict(json.loads(wire)) == spec

    def test_default_variant_is_the_headline_configuration(self):
        assert BuildSpec(app="BlinkTask_Mica2").variant == "safe-optimized"

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            BuildSpec(app="NoSuchApp_Mica2")

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError):
            BuildSpec(app="BlinkTask_Mica2", variant="no-such-variant")

    def test_content_key_is_stable_across_equal_specs(self):
        first = BuildSpec(app="Surge_Mica2", variant="safe-optimized")
        second = BuildSpec(app="Surge_Mica2", variant="safe-optimized")
        assert first == second
        assert first.content_key() == second.content_key()

    def test_content_key_distinguishes_apps_and_variants(self):
        keys = {BuildSpec(app=app, variant=variant).content_key()
                for app in FIGURE_APPS[:3]
                for variant in ("baseline", "safe-flid", "safe-optimized")}
        assert len(keys) == 9

    def test_each_pass_list_has_one_registered_name(self):
        """No two registered variants lower to the same pass list, so a
        session that builds several figures builds each configuration
        once."""
        names_by_keys: dict[tuple[str, ...], list[str]] = {}
        for name in all_variant_names():
            names_by_keys.setdefault(variant_pass_keys(name), []).append(name)
        assert [names for names in names_by_keys.values()
                if len(names) > 1] == []

    def test_content_key_derives_from_pass_cache_keys(self):
        """Equal specs share a content key, digested from pass cache keys."""
        keys = variant_pass_keys("safe-flid")
        assert any("flid" in key or "ccured" in key for key in keys)
        # Same app, same pass-key sequence => same content key by digest.
        spec = BuildSpec(app="BlinkTask_Mica2", variant="safe-flid")
        again = BuildSpec(app="BlinkTask_Mica2", variant="safe-flid")
        assert spec.content_key() == again.content_key()


class TestSweepSpec:
    def test_json_round_trip(self):
        spec = SweepSpec(apps=("BlinkTask_Mica2", "Surge_Mica2"),
                         variants=("baseline", "safe-optimized"))
        wire = json.dumps(spec.to_dict())
        assert SweepSpec.from_dict(json.loads(wire)) == spec

    def test_lists_are_coerced_to_tuples(self):
        spec = SweepSpec(apps=["BlinkTask_Mica2"], variants=["baseline"])
        assert spec == SweepSpec(apps=("BlinkTask_Mica2",),
                                 variants=("baseline",))

    def test_build_specs_enumerate_in_app_then_variant_order(self):
        spec = SweepSpec(apps=("BlinkTask_Mica2", "Surge_Mica2"),
                         variants=("baseline", "safe-flid"))
        pairs = [(s.app, s.variant) for s in spec.build_specs()]
        assert pairs == [("BlinkTask_Mica2", "baseline"),
                        ("BlinkTask_Mica2", "safe-flid"),
                        ("Surge_Mica2", "baseline"),
                        ("Surge_Mica2", "safe-flid")]

    def test_empty_sweeps_are_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(apps=(), variants=("baseline",))
        with pytest.raises(ValueError):
            SweepSpec(apps=("BlinkTask_Mica2",), variants=())

    def test_content_key_covers_every_build(self):
        small = SweepSpec(apps=("BlinkTask_Mica2",), variants=("baseline",))
        large = SweepSpec(apps=("BlinkTask_Mica2",),
                          variants=("baseline", "safe-flid"))
        assert small.content_key() != large.content_key()


class TestSimSpec:
    def test_json_round_trip(self):
        spec = SimSpec(app="Surge_Mica2", variant="safe-optimized",
                       node_count=3, seconds=2.5, traffic="none")
        wire = json.dumps(spec.to_dict())
        assert SimSpec.from_dict(json.loads(wire)) == spec

    def test_zero_nodes_rejected_at_spec_validation_time(self):
        with pytest.raises(ValueError, match="node_count must be >= 1"):
            SimSpec(app="BlinkTask_Mica2", node_count=0)

    def test_validation_error_names_the_spec(self):
        with pytest.raises(ValueError, match="BlinkTask_Mica2"):
            SimSpec(app="BlinkTask_Mica2", node_count=-2)

    def test_non_positive_seconds_rejected(self):
        with pytest.raises(ValueError, match="seconds must be positive"):
            SimSpec(app="BlinkTask_Mica2", seconds=0.0)

    @pytest.mark.parametrize("seconds", [float("inf"), float("nan")])
    def test_infinite_seconds_rejected_by_both_simulation_specs(self, seconds):
        with pytest.raises(ValueError, match="positive and finite"):
            SimSpec(app="BlinkTask_Mica2", seconds=seconds)
        with pytest.raises(ValueError, match="positive and finite"):
            ScenarioSpec(app="Surge_Mica2", variants=("baseline",),
                         plan=FaultPlan(faults=(BitFlipFault(),), seed=1),
                         seconds=seconds)

    def test_unknown_traffic_mode_rejected(self):
        with pytest.raises(ValueError, match="traffic"):
            SimSpec(app="BlinkTask_Mica2", traffic="storm")

    def test_content_key_includes_simulation_parameters(self):
        base = SimSpec(app="BlinkTask_Mica2", seconds=1.0)
        assert base.content_key() != \
            SimSpec(app="BlinkTask_Mica2", seconds=2.0).content_key()
        assert base.content_key() != \
            SimSpec(app="BlinkTask_Mica2", seconds=1.0,
                    node_count=2).content_key()
        assert base.content_key() == \
            SimSpec(app="BlinkTask_Mica2", seconds=1.0).content_key()

    def test_topology_round_trip_and_content_key(self):
        spec = SimSpec(app="Surge_Mica2", node_count=3, seconds=2.0,
                       topology="chain", loss=0.25, seed=7, traffic="none")
        wire = json.dumps(spec.to_dict())
        assert SimSpec.from_dict(json.loads(wire)) == spec
        base = SimSpec(app="Surge_Mica2", node_count=3, seconds=2.0)
        assert spec.content_key() != base.content_key()
        assert spec.content_key() != \
            SimSpec(app="Surge_Mica2", node_count=3, seconds=2.0,
                    topology="chain", loss=0.25, seed=8,
                    traffic="none").content_key()

    def test_old_serialized_specs_still_load(self):
        """Dictionaries written before the topology fields existed, and
        ones carrying the settings of the removed multi-process kernel
        and persistent lowering-plan store."""
        spec = SimSpec.from_dict({
            "app": "BlinkTask_Mica2", "variant": "baseline",
            "node_count": 1, "seconds": 1.0})
        assert spec.topology == "broadcast"
        assert spec.loss == 0.0
        assert spec.seed == 0

        legacy = SimSpec.from_dict(LEGACY_SIM)
        assert legacy == SimSpec(app="Surge_Mica2", variant="baseline",
                                 node_count=4, seconds=2.0,
                                 topology="chain", loss=0.1, seed=3)
        assert not {"workers", "chaos"} & set(legacy.to_dict())
        scenario = ScenarioSpec.from_dict(LEGACY_SCENARIO)
        assert scenario == ScenarioSpec(
            app="Surge_Mica2", variants=("baseline", "safe-optimized"),
            plan=FaultPlan(faults=(BitFlipFault(),), seed=1),
            node_count=2, seconds=2.0)
        assert "workers" not in scenario.to_dict()

        # Loading drops the plan-store directory: nothing else differs.
        assert SimSpec.from_dict(PLAN_STORE_SIM) == legacy
        assert set(legacy.to_dict()) < set(PLAN_STORE_SIM)
        assert ScenarioSpec.from_dict(PLAN_STORE_SCENARIO) == scenario
        assert set(scenario.to_dict()) < set(PLAN_STORE_SCENARIO)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            SimSpec(app="BlinkTask_Mica2", topology="ring")

    def test_invalid_loss_and_seed_rejected(self):
        with pytest.raises(ValueError, match="loss"):
            SimSpec(app="BlinkTask_Mica2", loss=1.0)
        with pytest.raises(ValueError, match="seed"):
            SimSpec(app="BlinkTask_Mica2", seed=-1)

    def test_base_traffic_profile_is_accepted(self):
        assert SimSpec(app="Surge_Mica2", traffic="base").traffic == "base"


class TestStoredContentKeys:
    """Keys recorded with the removed kernel settings still match."""

    def test_sim_spec_key_is_unchanged(self):
        assert SimSpec.from_dict(LEGACY_SIM).content_key() == LEGACY_SIM_KEY

    def test_scenario_spec_key_is_unchanged(self):
        assert ScenarioSpec.from_dict(LEGACY_SCENARIO).content_key() \
            == LEGACY_SCENARIO_KEY

    def test_plan_store_era_keys_are_unchanged(self):
        assert SimSpec.from_dict(PLAN_STORE_SIM).content_key() \
            == LEGACY_SIM_KEY
        assert ScenarioSpec.from_dict(PLAN_STORE_SCENARIO).content_key() \
            == LEGACY_SCENARIO_KEY
