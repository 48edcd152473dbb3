"""Command line front end: run experiments, train policies, export surfaces.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 missing
artifact, 4 training finished without convergence (outputs still written).
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import (ConfigError, MissingArtifactError, ParameterError,
                     PolicyUnavailableError)
from .experiments import (ExperimentConfig, check_under_directory,
                          export_ambiguity_surface, run, train_policy,
                          write_surface_csv)
from .qlearning import artifact_path
from .waveform import FILTER_FAMILIES, filter_factory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_NOT_CONVERGED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potsim",
        description="Link-level simulator for interference mitigation with "
                    "partially overlapping tones.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--train-if-missing", action="store_true",
                       help="train the FO policy when the artifact is absent")

    p_train = sub.add_parser("train", help="train an FO assignment policy")
    p_train.add_argument("--s-max", type=int, required=True,
                         help="largest aggressor count to train")
    p_train.add_argument("--out", required=True, help="Q-table artifact path")
    p_train.add_argument("--config", default=None,
                         help="JSON config for geometry/filter defaults")
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the config seed")

    p_amb = sub.add_parser("ambiguity", help="export an ambiguity surface")
    p_amb.add_argument("--filter", required=True, choices=FILTER_FAMILIES)
    p_amb.add_argument("--param", type=float, required=True,
                       help="dispersion or roll-off of the filter")
    p_amb.add_argument("--out", required=True, help="CSV output path")
    p_amb.add_argument("--resolution", type=int, default=61)
    p_amb.add_argument("--extent", type=float, default=3.0)
    return parser


def _load_config(path: str) -> ExperimentConfig:
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        data = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.train_if_missing:
        overrides["train_if_missing"] = True
    if overrides:
        config = replace(config, **overrides)
    summary = run(config, args.out)
    for warning in summary["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    for name, digest in sorted(summary["outputs"].items()):
        print(f"wrote {Path(args.out) / name} sha256={digest[:12]}")
    qtable = summary.get("qtable")
    if qtable and qtable["trained_now"] and qtable["not_converged_counts"]:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_train(args) -> int:
    if args.config is not None:
        config = _load_config(args.config)
    else:
        config = ExperimentConfig(experiment="capacity_vs_aggressors")
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.s_max < 1:
        raise ConfigError("--s-max must be at least 1")
    out = artifact_path(args.out)
    if out.is_dir():
        raise ConfigError(f"--out {out} is a directory")
    check_under_directory(out.parent, "--out")
    table = train_policy(config, args.s_max)
    out.parent.mkdir(parents=True, exist_ok=True)
    table.save(out)
    not_converged = table.not_converged_counts()
    print(f"wrote {out} (counts 1..{args.s_max})")
    if not_converged:
        print(f"warning: counts not converged: {not_converged}",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_ambiguity(args) -> int:
    pulse = filter_factory(args.filter, args.param)
    tau_grid, nu_grid, magnitude = export_ambiguity_surface(
        pulse, args.resolution, args.extent)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    note = f"filter={args.filter} param={args.param!r}"
    write_surface_csv(out, tau_grid, nu_grid, magnitude, note)
    print(f"wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "train": _cmd_train,
                "ambiguity": _cmd_ambiguity}
    try:
        return handlers[args.command](args)
    except (MissingArtifactError, PolicyUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
