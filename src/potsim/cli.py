"""Command line front end: run experiments (ambiguity surfaces included,
as an ``ambiguity_surface`` config) and train policies.

Exit codes: 0 success, 2 invalid configuration or arguments (a filter that
cannot be built included), 3 missing artifact, 4 training finished without
convergence (outputs still written).
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import (ConfigError, DegenerateFilterError, MissingArtifactError,
                     ParameterError, PolicyUnavailableError)
from .experiments import ExperimentConfig, run, train_policy
from .qlearning import artifact_path

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
    table = train_policy(config, args.s_max, out)
    not_converged = table.not_converged_counts()
    print(f"wrote {out} (counts 1..{args.s_max})")
    if not_converged:
        print(f"warning: counts not converged: {not_converged}",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "train": _cmd_train}
    try:
        return handlers[args.command](args)
    except (MissingArtifactError, PolicyUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except (ConfigError, ParameterError, DegenerateFilterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
