"""Scenario/Sweep specs: serialization, expansion, seeds, hashing."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.harness.scenario import (
    Scenario,
    Sweep,
    cell_id_for,
    derive_seed,
    load_sweep,
)


def scenario(**overrides):
    base = dict(
        experiment="debug.echo",
        topology={"nodes": 4},
        workload={"theta": 0.99, "mix": "B"},
        policy={"kind": "os_paging"},
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenario:
    def test_json_round_trip(self):
        s = scenario()
        assert Scenario.from_json(s.to_json()) == s

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown scenario keys"):
            Scenario.from_dict({"experiment": "x", "bogus": 1})

    def test_requires_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            Scenario(experiment="")

    def test_content_hash_stable_and_sensitive(self):
        assert scenario().content_hash() == scenario().content_hash()
        changed = scenario(workload={"theta": 0.5, "mix": "B"})
        assert changed.content_hash() != scenario().content_hash()
        assert scenario(seed=8).content_hash() != scenario().content_hash()

    def test_with_params_dotted(self):
        s = scenario().with_params({
            "workload.theta": 0.5,
            "topology.nodes": 8,
            "policy.tier.kind": "hbm",
            "seed": 99,
        })
        assert s.workload["theta"] == 0.5
        assert s.workload["mix"] == "B"          # untouched siblings
        assert s.topology["nodes"] == 8
        assert s.policy["tier"] == {"kind": "hbm"}
        assert s.seed == 99
        assert scenario().workload["theta"] == 0.99  # original intact

    def test_with_params_rejects_bad_paths(self):
        with pytest.raises(ConfigError, match="outside the scenario"):
            scenario().with_params({"bogus.x": 1})
        with pytest.raises(ConfigError, match="inside"):
            scenario().with_params({"workload": 1})


class TestSweep:
    def sweep(self, **overrides):
        kwargs = dict(
            name="grid",
            base=scenario(),
            axes={
                "workload.theta": (0.5, 0.99),
                "policy.kind": ("all_dram", "os_paging", "static"),
            },
        )
        kwargs.update(overrides)
        return Sweep(**kwargs)

    def test_expansion_is_cartesian_and_ordered(self):
        cells = self.sweep().cells()
        assert len(cells) == 6 == len(self.sweep())
        assert [c.index for c in cells] == list(range(6))
        # First axis varies slowest (spec order).
        assert [c.assignments["workload.theta"] for c in cells] == \
            [0.5, 0.5, 0.5, 0.99, 0.99, 0.99]

    def test_cell_ids_are_stable_and_unique(self):
        cells = self.sweep().cells()
        ids = [c.cell_id for c in cells]
        assert len(set(ids)) == len(ids)
        assert ids == [c.cell_id for c in self.sweep().cells()]
        assert cell_id_for({"b": 1, "a": "x"}) == 'a="x",b=1'

    def test_per_cell_seeds_deterministic_and_distinct(self):
        cells = self.sweep().cells()
        seeds = [c.scenario.seed for c in cells]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [c.scenario.seed for c in self.sweep().cells()]
        assert seeds[0] == derive_seed(7, cells[0].cell_id)

    def test_shared_seed_mode(self):
        cells = self.sweep(per_cell_seeds=False).cells()
        assert {c.scenario.seed for c in cells} == {7}

    def test_seed_axis_wins_over_derivation(self):
        sweep = self.sweep(axes={"seed": (1, 2)})
        assert [c.scenario.seed for c in sweep.cells()] == [1, 2]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            self.sweep(axes={"workload.theta": []})

    def test_dict_round_trip(self):
        sweep = self.sweep()
        again = Sweep.from_dict(sweep.to_dict())
        assert again.to_dict() == sweep.to_dict()
        assert [c.cell_id for c in again.cells()] == \
            [c.cell_id for c in sweep.cells()]


class TestSpecFiles:
    def test_json_save_load(self, tmp_path):
        sweep = Sweep(name="s", base=scenario(),
                      axes={"workload.theta": (0.5,)}, gate="b.json")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(sweep.to_dict()))
        loaded = load_sweep(path)
        assert loaded.to_dict() == sweep.to_dict()
        assert loaded.gate == "b.json"

    def test_toml_spec_is_refused_naming_json(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text('name = "s"\n[base]\nexperiment = "debug.echo"\n')
        with pytest.raises(ConfigError, match="JSON"):
            load_sweep(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_sweep(tmp_path / "nope.json")

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_sweep(path)

    def test_missing_base_rejected(self, tmp_path):
        path = tmp_path / "nobase.json"
        path.write_text(json.dumps({"name": "x", "axes": {}}))
        with pytest.raises(ConfigError, match="base"):
            load_sweep(path)

    def test_repo_specs_load(self):
        # Every shipped spec stays parseable and expandable, with a gate.
        specs_dir = Path(__file__).resolve().parents[2] / "specs"
        cells = {
            "a11_columnar.json": 6,
            "a1_scan_resistance.json": 2,
            "a2_replacement.json": 4,
            "a3_prefetch.json": 1,
            "a4_switch_depth.json": 3,
            "a5_index_placement.json": 1,
            "a6_autoscale.json": 3,
            "a7_interference.json": 4,
            "a7_oltp_mechanisms.json": 1,
            "a8_morsel_scheduling.json": 3,
            "a8_pondscale.json": 8,
            "a9_memory_diversity.json": 3,
            "e10_ras.json": 1,
            "e1_paths.json": 3,
            "e2_tiering.json": 3,
            "e3_pond_population.json": 1,
            "e3_tpch.json": 1,
            "e4_transfer_ladder.json": 4,
            "e5_expansion.json": 12,
            "e5_htap_isolation.json": 2,
            "e6_pooling.json": 1,
            "e6_savings_curve.json": 6,
            "e7_coherency.json": 2,
            "e7_distribution.json": 6,
            "e7_hash_vs_sort.json": 8,
            "e7_host_scaling.json": 4,
            "e8_active_region.json": 2,
            "e8_ndp_filter.json": 5,
            "e8_ndp_operators.json": 7,
            "e9_heterogeneous.json": 2,
            "f1_coherency_domain.json": 3,
        }
        assert sorted(p.name for p in specs_dir.glob("*.json")) == \
            sorted(cells)
        for filename, count in cells.items():
            sweep = load_sweep(specs_dir / filename)
            assert len(sweep.cells()) == count, filename
            assert sweep.gate, filename
