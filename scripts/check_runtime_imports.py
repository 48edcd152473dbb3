"""Check that potsim's run path loads no scipy module.

Imports potsim and its CLI, then for every filter family builds a
CrossAmbiguity, one AWGN and one EPA ScenarioEnergies drop and an ambiguity
surface. It also trains a small policy (counts 1-2), saves and loads it,
decodes every count, and runs a 2-drop capacity-vs-aggressors sweep on the
loaded policy. Exits 1 and names the first few if any module called scipy or
scipy.* was loaded on the way, 0 otherwise. With potsim installed, or from
the repository root with PYTHONPATH=src:

    python scripts/check_runtime_imports.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

import potsim
import potsim.cli  # noqa: F401  (the CLI's imports count too)
from potsim.experiments import (CAPACITY_VS_AGGRESSORS, ExperimentConfig,
                                export_ambiguity_surface, scenario_family,
                                train_policy)


def exercise_policy_layer(out_dir: Path) -> None:
    """Train, save, load and decode a policy, then sweep on it."""
    config = ExperimentConfig(experiment=CAPACITY_VS_AGGRESSORS,
                              filters=("gaussian",), aggressor_grid=(1, 2),
                              num_drops=2, qtable_path=str(out_dir / "policy.npz"),
                              train_overrides={"episodes": 2, "ensemble": 1})
    train_policy(config, 2, config.qtable_path)
    loaded = potsim.QTable.load(config.qtable_path)
    for count in (1, 2):
        loaded.fo_assignment(count)
    potsim.run(config, out_dir / "run")


def main() -> int:
    for family in potsim.FILTER_FAMILIES:
        pulse = potsim.filter_factory(family, 0.2)
        export_ambiguity_surface(pulse, grid_resolution=11)
        configs = [ExperimentConfig(experiment=CAPACITY_VS_AGGRESSORS,
                                    filters=(family,), channel=channel)
                   for channel in ("awgn", "epa")]
        cross = potsim.CrossAmbiguity(pulse, pulse, configs[0].lattice,
                                      configs[0].fo_quantum)
        for config in configs:
            scenario_family(config, cross)(4, np.random.default_rng(1))
    with tempfile.TemporaryDirectory() as tmp:
        exercise_policy_layer(Path(tmp))
    loaded = sorted(name for name in sys.modules
                    if name == "scipy" or name.startswith("scipy."))
    if loaded:
        print(f"{len(loaded)} scipy modules loaded: " + ", ".join(loaded[:10]))
        return 1
    print("no scipy module loaded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
