"""Experiment configs, drop geometry, CSV outputs, and the CLI."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import potsim
from potsim import ConfigError, MissingArtifactError
from potsim.cli import main
from potsim.qlearning import Hyperparams, QTable
from potsim.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    export_ambiguity_surface,
    generate_drop,
    run,
    train_policy,
)

FAST_TRAIN = {"episodes": 40, "ensemble": 2, "beta": 1.0, "epsilon_end": 0.3}


def quick_config(**overrides):
    base = dict(experiment="capacity_vs_aggressors", filters=("gaussian",),
                aggressor_grid=(2,), num_drops=6, seed=5,
                train_if_missing=True, train_overrides=dict(FAST_TRAIN))
    base.update(overrides)
    return ExperimentConfig(**base)


def read_results(out_dir):
    text = (out_dir / "results.csv").read_text()
    comment, header, *_ = text.split("\n")
    assert comment.startswith("# config_hash=")
    assert header == CSV_HEADER
    rows = list(csv.DictReader(io.StringIO(text.split("\n", 1)[1])))
    return comment, rows


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trips_through_dict():
    config = quick_config(filters=("gaussian", "rrc"), snr_grid=(0.0, 10.0))
    clone = ExperimentConfig.from_dict(config.to_dict())
    assert clone == config
    assert clone.config_hash() == config.config_hash()


def test_unknown_config_keys_are_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "capacity_vs_snr", "epochs": 3})


def test_missing_experiment_is_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"filters": ["gaussian"]})


def test_invalid_enum_values_are_rejected():
    with pytest.raises((ConfigError, potsim.ParameterError)):
        quick_config(experiment="capacity_vs_frogs")
    with pytest.raises((ConfigError, potsim.ParameterError)):
        quick_config(filters=("hann",))
    with pytest.raises((ConfigError, potsim.ParameterError)):
        quick_config(channel="tu")
    with pytest.raises((ConfigError, potsim.ParameterError)):
        quick_config(overlap_mode="sideways")


def test_grids_must_be_sorted_and_non_empty():
    with pytest.raises((ConfigError, potsim.ParameterError)):
        quick_config(aggressor_grid=())
    with pytest.raises((ConfigError, potsim.ParameterError)):
        quick_config(aggressor_grid=(5, 2))
    with pytest.raises((ConfigError, potsim.ParameterError)):
        quick_config(num_drops=0)


@pytest.mark.parametrize("field,grid", [
    ("aggressor_grid", (2, 2)), ("aggressor_grid", (1, 5, 5, 10)),
    ("snr_grid", (10.0, 10.0)), ("snr_grid", (0.0, "inf", "inf"))])
def test_a_repeated_grid_value_is_rejected(field, grid):
    # (2, 2) once wrote two identical rows, each the mean over both grid
    # points' drops while its drops column read one point's count.
    with pytest.raises(ConfigError, match=f"{field} must be strictly ascending"):
        quick_config(**{field: grid})


def test_infinite_snr_parses_from_json_strings():
    config = ExperimentConfig.from_dict(
        {"experiment": "capacity_vs_snr", "snr_grid": [0, 10, "inf"]})
    assert math.isinf(config.snr_grid[-1])


@pytest.mark.parametrize("value", [True, False, "ten", None, [1.0], math.nan])
def test_snr_grid_entries_must_be_numbers(tmp_path, capsys, value):
    # true once ran a 1.0 dB point and NaN a row of nan.
    with pytest.raises(ConfigError, match="snr_grid"):
        ExperimentConfig(experiment="capacity_vs_snr", snr_grid=(-1.0, value))
    data = {"experiment": "capacity_vs_snr", "snr_grid": [-1, value],
            "overlap_mode": "full_overlap", "num_drops": 1}
    with pytest.raises(ConfigError, match="snr_grid"):
        ExperimentConfig.from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "snr_grid" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("value", ["-inf", -math.inf])
def test_snr_grid_rejects_minus_infinity(tmp_path, capsys, value):
    # It once ran as a noiseless point, above the 0 dB one.
    data = {"experiment": "capacity_vs_snr", "snr_grid": [value, 0],
            "overlap_mode": "full_overlap", "num_drops": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "snr_grid" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_config_hash_tracks_every_field():
    a = quick_config()
    b = quick_config()
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 12
    assert quick_config(seed=6).config_hash() != a.config_hash()
    assert quick_config(snr_db=12.0).config_hash() != a.config_hash()


def test_filter_names_are_normalized_to_lowercase():
    config = quick_config(filters=("Gaussian", "RRC"))
    assert config.filters == ("gaussian", "rrc")


# ---------------------------------------------------------------------------
# drop geometry


def test_drops_are_victim_centric():
    config = quick_config()
    rng = np.random.default_rng(3)
    for _ in range(20):
        scenario = generate_drop(config, 5, rng)
        victim = scenario.links[0]
        assert victim.length <= config.max_link_range
        for aggressor in scenario.links[1:]:
            gap = math.dist(aggressor.tp_position, victim.rp_position)
            assert gap <= config.interference_radius + 1e-9
            assert aggressor.length <= config.max_link_range


@pytest.mark.parametrize("field", ["interference_radius", "max_link_range"])
def test_a_radius_far_above_the_area_runs_in_seconds(tmp_path, field):
    # A disk that covers the area is drawn over the area at once; a 1e12 m
    # radius once resampled its disk practically forever. A child process
    # turns such a hang into a timeout instead of a stuck suite.
    data = {"experiment": "outage_vs_aggressors", "overlap_mode": "full_overlap",
            "num_drops": 2, field: 1e12}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    src = str(Path(potsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "potsim.cli", "run", "--config", str(path),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "results.csv").exists()


# ---------------------------------------------------------------------------
# ambiguity surface export


def test_surface_peaks_at_unity_at_the_origin():
    for family, param in (("gaussian", 0.2), ("rrc", 0.2), ("iota", 0.2)):
        pulse = potsim.filter_factory(family, param)
        _, _, magnitude = export_ambiguity_surface(pulse, 41, 2.0)
        assert magnitude[20, 20] == pytest.approx(1.0, abs=1e-6)
        assert magnitude.max() == pytest.approx(magnitude[20, 20], abs=1e-9)


def test_isotropic_surface_is_symmetric_under_axis_swap():
    pulse = potsim.make_gaussian(1.0)
    _, _, magnitude = export_ambiguity_surface(pulse, 41, 2.0)
    assert np.max(np.abs(magnitude - magnitude.T)) < 1e-3


def test_smaller_dispersion_squeezes_the_surface_toward_frequency():
    _, _, iso = export_ambiguity_surface(potsim.make_gaussian(1.0), 41, 2.0)
    _, _, squeezed = export_ambiguity_surface(potsim.make_gaussian(0.5), 41, 2.0)
    center = 20
    off = 30
    assert squeezed[center, off] < iso[center, off]
    assert squeezed[off, center] > iso[off, center]


# ---------------------------------------------------------------------------
# experiment runs


def test_run_emits_one_row_per_grid_filter_mode(tmp_path):
    config = quick_config(filters=("gaussian", "rrc"))
    summary = run(config, tmp_path)
    comment, rows = read_results(tmp_path)
    assert comment == f"# config_hash={config.config_hash()}"
    assert len(rows) == 1 * 2 * 2
    for row in rows:
        assert row["metric"] == "capacity"
        assert row["mode"] in ("pot", "full_overlap")
        assert int(row["drops"]) == config.num_drops
        assert float(row["mean"]) > 0.0
    assert summary["config_hash"] == config.config_hash()
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert summary["outputs"]["results.csv"] == digest


def test_summary_echoes_the_config_and_policy_artifact(tmp_path):
    config = quick_config()
    summary = run(config, tmp_path)
    assert summary["config"] == config.to_dict()
    assert summary["seed"] == config.seed
    assert summary["qtable"]["trained_now"] is True
    assert (tmp_path / "qtable.npz").exists()
    assert (tmp_path / "summary.json").exists()
    reloaded = json.loads((tmp_path / "summary.json").read_text())
    assert reloaded["config_hash"] == summary["config_hash"]


def test_identical_config_and_seed_reproduce_identical_csv_bytes(tmp_path):
    config = quick_config()
    first = tmp_path / "a"
    second = tmp_path / "b"
    run(config, first)
    # The second run reuses the artifact trained by the first, exercising the
    # load path as well as byte determinism.
    reused = quick_config(qtable_path=str(first / "qtable.npz"),
                          train_if_missing=False)
    run(reused, second)
    fresh = quick_config()
    third = tmp_path / "c"
    run(fresh, third)
    assert (first / "results.csv").read_bytes() == (third / "results.csv").read_bytes()
    pot_rows = lambda p: [r for _, rs in [read_results(p)] for r in rs]
    assert pot_rows(first) == pot_rows(second)


def test_full_overlap_mode_needs_no_policy(tmp_path):
    config = quick_config(overlap_mode="full_overlap", train_if_missing=False)
    summary = run(config, tmp_path)
    assert summary["qtable"] is None
    _, rows = read_results(tmp_path)
    assert {row["mode"] for row in rows} == {"full_overlap"}


def test_pot_mode_without_artifact_or_training_is_loud(tmp_path):
    config = quick_config(train_if_missing=False)
    with pytest.raises(MissingArtifactError):
        run(config, tmp_path)


def test_confidence_halfwidth_shrinks_with_the_square_root_of_drops(tmp_path):
    def ci_at(drops, out):
        config = ExperimentConfig(experiment="capacity_vs_snr",
                                  filters=("gaussian",),
                                  overlap_mode="full_overlap",
                                  snr_grid=(10.0,), num_aggressors=3,
                                  num_drops=drops, seed=5)
        run(config, tmp_path / out)
        _, rows = read_results(tmp_path / out)
        return float(rows[0]["ci95"])

    ratio = ci_at(60, "small") / ci_at(240, "large")
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_surface_experiment_writes_one_csv_per_filter(tmp_path):
    config = ExperimentConfig(experiment="ambiguity_surface",
                              filters=("gaussian", "iota"), filter_param=1.0,
                              surface_resolution=21)
    summary = run(config, tmp_path)
    assert set(summary["outputs"]) == {"surface_gaussian.csv", "surface_iota.csv"}
    text = (tmp_path / "surface_gaussian.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert len(lines) == 2 + 21
    header_cells = lines[1].split(",")
    assert len(header_cells) == 1 + 21


def test_a_run_decodes_each_aggressor_count_at_most_once(tmp_path, monkeypatch):
    calls = []
    decode = QTable.fo_assignment

    def spy(table, count):
        calls.append(count)
        return decode(table, count)

    monkeypatch.setattr(QTable, "fo_assignment", spy)
    run(quick_config(aggressor_grid=(2, 5)), tmp_path)
    assert calls
    assert len(calls) == len(set(calls))
    assert set(calls) <= set(range(1, 6))


# ---------------------------------------------------------------------------
# command line


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


def test_cli_run_round_trip(tmp_path):
    config = quick_config()
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()


def test_cli_rejects_bad_configs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "capacity_vs_snr", "bogus": 1}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_cli_run_with_a_repeated_grid_value_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "capacity_vs_aggressors",
                                "aggressor_grid": [2, 2], "num_drops": 3,
                                "overlap_mode": "full_overlap"}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "aggressor_grid must be strictly ascending" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("num_drops", 2.5), ("seed", 1.5), ("num_subcarriers", 12.0),
    ("fo_quantum", 8.5), ("num_drops", True), ("aggressor_grid", [1.7])])
def test_cli_rejects_a_non_integer_count_or_index(tmp_path, capsys, field,
                                                  value):
    # Each once crashed with a traceback or silently ran another config.
    data = quick_config(overlap_mode="full_overlap").to_dict()
    data[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("snr_db", "ten"), ("snr_db", True), ("outage_threshold_db", "x"),
    ("filter_param", None), ("carrier_freq", [800e6]), ("filter_param", math.nan),
    ("snr_db", -math.inf), ("lattice_density", math.inf), ("carrier_freq", math.inf)])
def test_cli_rejects_a_real_field_that_is_not_a_number(tmp_path, capsys, field,
                                                       value):
    # "ten" and "x" once failed with exit 1 after the run had started; true
    # ran as 1.0, NaN wrote nan rows and -inf ran noiseless. An infinite
    # lattice density crashed with a traceback; an infinite carrier ran.
    data = quick_config(overlap_mode="full_overlap").to_dict()
    data[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("snr_grid", "05"), ("filters", "gaussian"), ("aggressor_grid", 5)])
def test_cli_rejects_a_string_or_number_where_a_list_belongs(tmp_path, capsys,
                                                             field, value):
    # "05" once ran at 0 and 5 dB; "gaussian" failed on filter family "g" and
    # 5 with a message that did not name the field.
    data = quick_config(overlap_mode="full_overlap").to_dict()
    data[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("cls,required", [
    (ExperimentConfig, {"experiment": "capacity_vs_snr"}), (Hyperparams, {})])
def test_every_number_field_is_checked_against_its_annotation(cls, required):
    # Driven by the annotations, so a field added later is covered too; a
    # string annotation (postponed evaluation) would leave nothing to check.
    numeric = [f for f in fields(cls) if f.type in (int, float)]
    assert numeric
    for f in numeric:
        for bad in (True, "1", math.nan, math.inf):
            with pytest.raises(potsim.PotsimError, match=rf"^{f.name} "):
                cls(**required, **{f.name: bad})
        numpy_value = (np.int64 if f.type is int else np.float32)(f.default)
        stored = getattr(cls(**required, **{f.name: numpy_value}), f.name)
        assert type(stored) is f.type and stored == numpy_value


def test_numpy_numbers_leave_a_hashable_config():
    # Each once raised TypeError: the number is not JSON serializable.
    config = ExperimentConfig(
        experiment="capacity_vs_snr", seed=np.int64(3), num_drops=np.int64(4),
        filter_param=np.float32(0.5), train_overrides={"beta": np.float32(0.5)})
    plain = ExperimentConfig(experiment="capacity_vs_snr", seed=3, num_drops=4,
                             filter_param=0.5, train_overrides={"beta": 0.5})
    assert config.config_hash() == plain.config_hash()


@pytest.mark.parametrize("config,digest", [
    ({"experiment": "capacity_vs_aggressors"}, "52ab15720e92"),
    ({"experiment": "capacity_vs_snr", "snr_db": 10, "bandwidth": 200000,
      "snr_grid": [0, 5, 10]}, "032b86c86d22"),
    ({"experiment": "outage_vs_aggressors", "outage_threshold_db": -6,
      "filter_param": 1}, "714d2c6ae2f0")])
def test_number_checks_leave_the_config_hash_alone(config, digest):
    # Integers in real fields stay as written, so their hash is unchanged.
    assert ExperimentConfig.from_dict(config).config_hash() == digest


@pytest.mark.parametrize("field,value", [
    ("episodes", 2.5), ("ensemble", 2.0), ("steps_per_episode", 1.5),
    ("episodes", True), ("ensemble", "4")])
def test_cli_run_rejects_a_non_integer_training_budget(tmp_path, capsys, field,
                                                       value):
    # 2.5 once crashed training with a TypeError (exit 1); true trained one
    # episode.
    data = quick_config().to_dict()
    data["train_overrides"] = {**data["train_overrides"], field: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--train-if-missing"]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("beta", True), ("gamma", False), ("epsilon_start", "1"),
    ("lambda1", None), ("tolerance", [1e-4]), ("lambda1", math.nan)])
def test_cli_run_rejects_a_real_training_knob_that_is_not_a_number(
        tmp_path, capsys, field, value):
    # true once trained with beta = 1 and false with gamma = 0; NaN trained
    # an all-NaN table that reported converged.
    data = quick_config().to_dict()
    data["train_overrides"] = {**data["train_overrides"], field: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--train-if-missing"]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("qtable_path", 5), ("qtable_path", None), ("qtable_path", ["policy"]),
    ("train_if_missing", "no"), ("train_if_missing", 1),
    ("train_if_missing", None)])
def test_cli_run_rejects_a_mistyped_policy_field(tmp_path, capsys, field,
                                                 value):
    # 5 once failed with a TypeError (exit 1); "no" trained a policy.
    data = quick_config(train_if_missing=False).to_dict()
    data[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "results.csv").exists()
    assert not (out / "qtable.npz").exists()


@pytest.mark.parametrize("command,seed_in_config", [
    (["run", "--out", "out"], -1), (["run", "--out", "out", "--seed", "-3"], 5),
    (["train", "--s-max", "1", "--out", "policy.npz", "--seed", "-2"], 5)])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, monkeypatch, command,
                                    seed_in_config):
    # Each once exited 1 with numpy's "expected non-negative integer".
    data = quick_config(overlap_mode="full_overlap").to_dict()
    data["seed"] = seed_in_config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--config", str(path)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_reports_missing_artifacts(tmp_path):
    config = quick_config(train_if_missing=False)
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3


def test_cli_run_with_an_artifact_missing_a_consulted_count_exits_3(
        tmp_path, capsys):
    # Count 1's one state (0,) holds a no-op value of 1.0.
    table = QTable(fo_quantum=8, per_count={1: {bytes(1): {0: 1.0}}})
    artifact = tmp_path / "policy.npz"
    table.save(artifact)
    config = quick_config(aggressor_grid=(2,), train_if_missing=False,
                          qtable_path=str(artifact))
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "no table for aggressor count 2" in capsys.readouterr().err


def test_cli_seed_override_changes_outputs(tmp_path):
    config = quick_config(overlap_mode="full_overlap", train_if_missing=False)
    path = write_config(tmp_path, config)
    a, b, c = (tmp_path / name for name in "abc")
    assert main(["run", "--config", str(path), "--out", str(a)]) == 0
    assert main(["run", "--config", str(path), "--out", str(b), "--seed", "9"]) == 0
    assert main(["run", "--config", str(path), "--out", str(c), "--seed", "9"]) == 0
    assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()
    assert (b / "results.csv").read_bytes() == (c / "results.csv").read_bytes()


def test_cli_train_then_run_without_retraining(tmp_path):
    config = quick_config(train_if_missing=False)
    cfg_path = write_config(tmp_path, config)
    table_path = tmp_path / "policy.npz"
    assert main(["train", "--s-max", "2", "--out", str(table_path),
                 "--config", str(cfg_path)]) in (0, 4)
    assert table_path.exists()
    runnable = quick_config(train_if_missing=False, qtable_path=str(table_path))
    cfg2 = tmp_path / "config2.json"
    cfg2.write_text(json.dumps(runnable.to_dict()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg2), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["qtable"]["trained_now"] is False


def test_cli_train_and_run_share_the_npz_naming_rule(tmp_path):
    config = quick_config(train_if_missing=False)
    cfg_path = write_config(tmp_path, config)
    bare = tmp_path / "policies" / "p"
    assert main(["train", "--s-max", "2", "--out", str(bare),
                 "--config", str(cfg_path)]) in (0, 4)
    assert (tmp_path / "policies" / "p.npz").exists()
    assert not bare.exists()
    runnable = tmp_path / "config2.json"
    runnable.write_text(json.dumps(
        quick_config(train_if_missing=False, qtable_path=str(bare)).to_dict()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(runnable), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["qtable"]["trained_now"] is False
    assert summary["qtable"]["path"] == str(bare) + ".npz"


def test_cli_run_rejects_a_malformed_artifact(tmp_path, capsys):
    artifact = tmp_path / "policy.npz"
    artifact.write_text("not an artifact\n")
    config = quick_config(train_if_missing=False, qtable_path=str(artifact))
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "not an npz Q-table artifact" in capsys.readouterr().err


def test_cli_run_rejects_an_artifact_header_without_counts(tmp_path, capsys):
    table = QTable(fo_quantum=8, per_count={1: {bytes(1): {}}})
    artifact = tmp_path / "policy.npz"
    table.save(artifact)
    with np.load(artifact) as data:
        arrays = {name: data[name] for name in data.files}
    header = json.loads(bytes(arrays["header"]).decode())
    del header["counts"]
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez_compressed(artifact, **arrays)
    config = quick_config(train_if_missing=False, qtable_path=str(artifact))
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "lacks counts" in capsys.readouterr().err


def test_cli_run_with_a_directory_for_its_policy_exits_2(tmp_path, capsys):
    # Both once exited 1 with an IsADirectoryError traceback.
    artifact = tmp_path / "policy.npz"
    artifact.mkdir()
    config = quick_config(train_if_missing=False, qtable_path=str(artifact))
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"cannot open Q-table {artifact}" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["policy.npz", "policy"])
def test_cli_train_to_a_directory_exits_2_before_training(tmp_path, capsys,
                                                           monkeypatch, out):
    (tmp_path / "policy.npz").mkdir()
    monkeypatch.setattr(potsim.experiments, "train", lambda *_, **__: pytest.fail(
        "trained although --out is a directory"))
    path = write_config(tmp_path, quick_config())
    assert main(["train", "--s-max", "2", "--out", str(tmp_path / out),
                 "--config", str(path)]) == 2
    assert (f"Q-table path {tmp_path / 'policy.npz'} is a directory"
            in capsys.readouterr().err)


@pytest.mark.parametrize("out", ["afile/policy.npz", "afile/deeper/policy"])
def test_cli_train_under_a_regular_file_exits_2_before_training(tmp_path, capsys,
                                                                 monkeypatch, out):
    (tmp_path / "afile").write_text("")
    monkeypatch.setattr(potsim.experiments, "train", lambda *_, **__: pytest.fail(
        "trained although --out lies under a regular file"))
    path = write_config(tmp_path, quick_config())
    assert main(["train", "--s-max", "2", "--out", str(tmp_path / out),
                 "--config", str(path)]) == 2
    assert f"{tmp_path / 'afile'} is not a directory" in capsys.readouterr().err


@pytest.fixture
def afile(tmp_path, monkeypatch):
    """A regular file ``afile`` in tmp_path; fetching a policy or sweeping
    fails the test."""
    (tmp_path / "afile").write_text("")
    for name in ("load_or_train_policy", "_sweep"):
        monkeypatch.setattr(potsim.experiments, name, lambda *args: pytest.fail(
            "ran although the output directory lies under a regular file"))
    return tmp_path / "afile"


@pytest.mark.parametrize("out", ["afile", "afile/out", "afile/deeper/out"])
def test_cli_run_under_a_regular_file_exits_2_before_the_sweep(tmp_path, capsys,
                                                               afile, out):
    path = write_config(tmp_path, quick_config())
    assert main(["run", "--config", str(path), "--out", str(tmp_path / out)]) == 2
    assert f"{tmp_path / 'afile'} is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["afile", "afile/out", "afile/deeper/out"])
def test_run_under_a_regular_file_is_rejected_before_any_work(tmp_path, afile, out):
    with pytest.raises(ConfigError) as error:
        run(quick_config(), tmp_path / out)
    assert f"output directory {tmp_path / out}: {afile} is not a directory" in str(
        error.value)
    assert afile.read_text() == ""


@pytest.fixture
def policy_under_a_file(tmp_path, monkeypatch):
    """A train-if-missing config whose policy path lies under a regular
    file; training fails the test. Once, every count was trained before
    mkdir raised FileExistsError."""
    (tmp_path / "qfile").write_text("")
    monkeypatch.setattr(potsim.experiments, "train", lambda *_, **__: pytest.fail(
        "trained although the policy path lies under a regular file"))
    return quick_config(qtable_path=str(tmp_path / "qfile" / "policy.npz"))


def test_a_policy_path_under_a_regular_file_is_rejected_before_training(
        tmp_path, policy_under_a_file):
    with pytest.raises(ConfigError, match="is not a directory") as error:
        run(policy_under_a_file, tmp_path / "out")
    assert str(tmp_path / "qfile" / "policy.npz") in str(error.value)
    assert f"{tmp_path / 'qfile'} is not a directory" in str(error.value)


def test_cli_run_with_its_policy_under_a_regular_file_exits_2_before_training(
        tmp_path, capsys, policy_under_a_file):
    path = write_config(tmp_path, policy_under_a_file)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{tmp_path / 'qfile'} is not a directory" in capsys.readouterr().err


def test_cli_run_exports_an_ambiguity_surface(tmp_path):
    config = ExperimentConfig(experiment="ambiguity_surface",
                              filters=("gaussian",), filter_param=1.0,
                              surface_resolution=21)
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "surface_gaussian.csv").exists()
    path.write_text(json.dumps({**config.to_dict(), "filter_param": 0.0}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "bad")]) == 2


def test_the_cli_has_no_ambiguity_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["ambiguity", "--filter", "iota", "--param", "0.2",
              "--out", "surface.csv"])
    assert exit_.value.code == 2
    assert "invalid choice: 'ambiguity'" in capsys.readouterr().err


@pytest.mark.parametrize("fields,message", [
    pytest.param({"filter_param": math.nan}, "filter_param must be a finite number",
                 id="nan"),
    pytest.param({"filters": ["iota"], "filter_param": 1000},
                 "periodized energy vanishes", id="degenerate-iota"),
    pytest.param({"filter_param": 1000}, "roll_off must lie in (0, 1]",
                 id="rrc-after-gaussian")])
def test_cli_run_of_a_filter_that_cannot_be_built_exits_2_writing_no_file(
        tmp_path, capsys, fields, message):
    # The IOTA case once exited 1 with a DegenerateFilterError traceback.
    # In the last, the Gaussian builds and RRC does not: the Gaussian's
    # surface was once written before the run failed.
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"experiment": "ambiguity_surface", **fields}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not [p for p in out.rglob("*") if p.is_file()]


def test_a_run_that_fails_before_writing_removes_the_directories_it_made(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"experiment": "ambiguity_surface",
                                "filters": ["iota"], "filter_param": 1000}))
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "new" / "out")]) == 2
    config = quick_config(qtable_path=str(tmp_path / "absent.npz"),
                          train_if_missing=False)
    with pytest.raises(MissingArtifactError):
        run(config, tmp_path / "sweep")
    assert list(tmp_path.iterdir()) == [path]
    # A directory that was there before the run stays.
    (tmp_path / "kept").mkdir()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "kept")]) == 2
    assert (tmp_path / "kept").is_dir()


#: sha256 of each surface CSV body below its comment line, from ``potsim
#: run`` of ``{"experiment": "ambiguity_surface"}`` (every filter, default
#: parameter and grid). The bodies equal those the former ``potsim
#: ambiguity --param 0.2`` wrote.
PINNED_SURFACE_SHA256 = {
    "gaussian": "4574c721bb21e6022e40c09f8c8d199afb3b3419f919045b3a1178dffc3bf805",
    "rrc": "2a0997c93fcbb0779e9061a640325adf40fb8fa876b347f018df9298e33807be",
    "iota": "03c1068d7529481c5d3469af951d4ece18a657490455076a6378ff2826f6cf30",
}


def test_default_surfaces_are_pinned(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"experiment": "ambiguity_surface"}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    config_hash = ExperimentConfig(experiment="ambiguity_surface").config_hash()
    for family, digest in PINNED_SURFACE_SHA256.items():
        comment, body = (tmp_path / "out" / f"surface_{family}.csv").read_bytes(
            ).split(b"\n", 1)
        assert comment.decode() == (f"# config_hash={config_hash} "
                                    f"filter={family} param=0.2")
        assert hashlib.sha256(body).hexdigest() == digest, family


# ---------------------------------------------------------------------------
# run-path outputs pinned across versions

#: sha256 of each results.csv body below its config_hash line (the hash
#: covers the policy path, so it differs between checkouts), and the
#: prescriptions decoded from the tiny policy. Energy-path refactors must
#: leave every one of them unchanged.
PINNED_CSV_SHA256 = {
    "awgn_capacity_vs_aggressors":
        "e4a1c0c2885b6841c21e0d8d282f9d49cd56f476b4d9c3f81dfd048638f3ea7e",
    "awgn_me_vs_aggressors":
        "fe86fbab5ad816047aa51b86feb85ca878ac36a239df7510a1c785e56e33d306",
    "awgn_outage_vs_aggressors":
        "1424928934fca5c9cc4ab5560960fe79de075b02623113f4a9457e229945e40a",
    "epa_capacity_vs_snr":
        "313bc55afa5560b25b5ede96206ab42b1c6038e1b6a96614b4087f2d603f86db",
}
PINNED_PRESCRIPTIONS = {1: (4,), 2: (4, 4), 3: (3, 5, 1), 4: (6, 3, 4, 7),
                        5: (6, 0, 5, 3, 0)}


def test_run_path_outputs_are_pinned(tmp_path):
    trainer = quick_config(train_overrides={"episodes": 30, "ensemble": 2},
                           train_if_missing=False)
    table_path = tmp_path / "policy.npz"
    assert main(["train", "--s-max", "5", "--out", str(table_path),
                 "--config", str(write_config(tmp_path, trainer))]) in (0, 4)
    table = QTable.load(table_path)
    prescriptions = {count: table.fo_assignment(count) for count in range(1, 6)}
    filters = ("gaussian", "rrc", "iota")
    sweeps = {
        "awgn_capacity_vs_aggressors": quick_config(
            filters=filters, aggressor_grid=(2, 5)),
        "awgn_me_vs_aggressors": quick_config(
            experiment="me_vs_aggressors", filters=filters, aggressor_grid=(2, 5)),
        "awgn_outage_vs_aggressors": quick_config(
            experiment="outage_vs_aggressors", filters=filters,
            aggressor_grid=(2, 5)),
        "epa_capacity_vs_snr": quick_config(
            experiment="capacity_vs_snr", channel="epa", filters=filters,
            snr_grid=(0.0, 20.0, math.inf), num_aggressors=5),
    }
    digests = {}
    for name, config in sweeps.items():
        config = replace(config, qtable_path=str(table_path),
                         train_if_missing=False)
        run(config, tmp_path / name)
        body = (tmp_path / name / "results.csv").read_bytes().split(b"\n", 1)[1]
        digests[name] = hashlib.sha256(body).hexdigest()
    fresh = f"fresh digests {digests}, prescriptions {prescriptions}"
    assert digests == PINNED_CSV_SHA256, fresh
    assert prescriptions == PINNED_PRESCRIPTIONS, fresh


#: sha256 of the artifact the CI's ``potsim train --config train.json --s-max 8
#: --seed 3`` writes, as the dense training walk wrote it.
PINNED_CI_POLICY_SHA256 = "734298027f8d2ed11190426b14580387a26f8e4391949a9319a0ef801941a937"


def test_the_ci_training_budget_writes_the_pinned_artifact(tmp_path):
    # Every stored Q-value is in these bytes, so a value that drifts
    # without flipping a prescription fails here.
    config = ExperimentConfig(experiment="capacity_vs_aggressors", seed=3,
                              train_overrides={"episodes": 40, "ensemble": 2})
    train_policy(config, 8, tmp_path / "policy.npz")
    digest = hashlib.sha256((tmp_path / "policy.npz").read_bytes()).hexdigest()
    assert digest == PINNED_CI_POLICY_SHA256
    # Loading keeps every stored bit: the loaded table saves the same bytes.
    QTable.load(tmp_path / "policy.npz").save(tmp_path / "resaved.npz")
    assert ((tmp_path / "resaved.npz").read_bytes()
            == (tmp_path / "policy.npz").read_bytes())


#: sha256 of the three-filter sweep's results.csv body and of the policy its
#: train-if-missing run writes, as they were before evaluators shared their
#: lag tables.
SHARED_TABLES_CSV_SHA256 = "ea797da2c418df924cf2ff3103b9f90b45495ec67dfdbb23a3ad6d866867edf5"
SHARED_TABLES_POLICY_SHA256 = "69df183c559f5bf5dc28deca17716874cceed669dc9bad42509678d78b753d3e"


def test_runs_in_one_process_build_each_evaluator_once(tmp_path):
    lag_tables = potsim.waveform._lag_tables
    lag_tables.cache_clear()
    config = quick_config(filters=("gaussian", "rrc", "iota"), aggressor_grid=(2, 5))
    run(config, tmp_path / "trained")
    # Training builds the Gaussian tables and the sweep reuses them.
    assert lag_tables.cache_info()[:2] == (1, 3)
    policy = tmp_path / "trained" / "qtable.npz"
    lag_tables.cache_clear()
    loaded = replace(config, qtable_path=str(policy), train_if_missing=False)
    for name in ("first", "second"):
        run(loaded, tmp_path / name)
    assert lag_tables.cache_info()[:2] == (3, 3)
    assert hashlib.sha256(policy.read_bytes()).hexdigest() == SHARED_TABLES_POLICY_SHA256
    for name in ("trained", "first", "second"):
        body = (tmp_path / name / "results.csv").read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == SHARED_TABLES_CSV_SHA256, name
