"""Run-config parsing: strictness and validation."""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest

from driftrisk.config import (
    RunConfig,
    load_run_config,
    parse_run_config,
)
from driftrisk.errors import ValidationError
from driftrisk.experiments import SweepGrid

from conftest import case_study_config_dict


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestParsing:
    def test_full_document_loads(self, tmp_path):
        config = load_run_config(write_config(tmp_path, case_study_config_dict()))
        assert config.monitor.topology == "rv"
        assert config.stream.config.horizon == 400
        assert config.oracle.ind_accuracy == 0.9
        assert config.sweep.rates == (0.1, 0.5, 0.9)

    def test_missing_schema_version_rejected(self, tmp_path):
        payload = case_study_config_dict()
        del payload["schema_version"]
        with pytest.raises(ValidationError, match="schema_version"):
            load_run_config(write_config(tmp_path, payload))

    def test_wrong_schema_version_rejected(self, tmp_path):
        payload = case_study_config_dict()
        payload["schema_version"] = 2
        with pytest.raises(ValidationError, match="schema_version"):
            load_run_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.update(surprise=1),
            lambda p: p["monitor"].update(tpr=0.9),
            lambda p: p["stream"].update(rate=0.1),
            lambda p: p["oracle"]["folds"][0].update(extra=True),
            lambda p: p["sweep"].update(unknown_axis=[1, 2]),
            lambda p: p["monitor"]["profile"].update(fpr=0.1),
        ],
    )
    def test_unknown_keys_rejected_everywhere(self, tmp_path, mutate):
        payload = case_study_config_dict()
        mutate(payload)
        with pytest.raises(ValidationError, match="unknown"):
            load_run_config(write_config(tmp_path, payload))

    def test_out_of_range_probability_rejected(self, tmp_path):
        payload = case_study_config_dict()
        payload["stream"]["shift_rate"] = 1.3
        with pytest.raises(ValidationError):
            load_run_config(write_config(tmp_path, payload))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_run_config(str(path))

    def test_partial_document(self, tmp_path):
        payload = {"schema_version": 1, "oracle": case_study_config_dict()["oracle"]}
        config = load_run_config(write_config(tmp_path, payload))
        assert config.monitor is None
        assert config.oracle is not None
        with pytest.raises(ValidationError, match="monitor"):
            config.require("monitor")


class TestSweepGrid:
    def test_grid_step_expands_profiles(self):
        grid = SweepGrid(rates=(0.5,), grid_step=0.5, ba_floor=0.5).for_error_sweep()
        assert {(p.tpr, p.tnr) for p in grid.profiles} == {
            (0.5, 1.0),
            (1.0, 0.5),
            (1.0, 1.0),
        }

    def test_profiles_take_precedence(self):
        config = parse_run_config(case_study_config_dict())
        grid = config.sweep.for_error_sweep()
        assert [(p.tpr, p.tnr) for p in grid.profiles] == [(0.9, 0.8)]

    def test_needs_profiles_or_step(self):
        with pytest.raises(ValidationError, match="profiles"):
            SweepGrid(rates=(0.5,)).for_error_sweep()

    def test_master_seed_override(self):
        config = parse_run_config(case_study_config_dict())
        assert config.sweep.master_seed == 5
        assert replace(config.sweep, master_seed=99).master_seed == 99
        with pytest.raises(ValidationError, match="master_seed"):
            replace(config.sweep, master_seed=-1)

    def test_keys_and_dict_come_from_the_fields(self):
        grid = SweepGrid()
        payload = grid.to_dict()
        assert set(payload) == {f.name for f in fields(SweepGrid)}
        assert SweepGrid.from_dict(payload) == grid


class TestRunConfigRequire:
    def test_reports_all_missing_sections(self):
        config = RunConfig()
        with pytest.raises(ValidationError) as err:
            config.require("monitor", "oracle")
        assert "monitor" in str(err.value) and "oracle" in str(err.value)
