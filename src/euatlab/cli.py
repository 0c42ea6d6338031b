"""Command-line interface.

Subcommands: train, evaluate, flip-eval, ood-eval, attack-eval, compare,
replay. Configs come from a JSON file (--config) and/or flag overrides;
the resolved config is written verbatim into the run manifest.

Exit codes: 0 success, 1 ``replay`` mismatch, 2 config error (also a
missing or unreadable run manifest, one without a numeric tuned
threshold in [0, 1], or a run directory that lacks an original
``replay`` compares, cannot read it, whose ``checkpoint.json`` does not
decode, or whose ``per_epoch.csv`` has no ``wall_time`` header; a
``--config`` file that is not JSON or not UTF-8;
a config or config section that is not a JSON object, an
unknown field, or a value of another JSON type than its field declares:
``true`` is not a number, ``300.0`` is not an integer, ``10**400`` is no
float64, and ``null`` fits only a field declared optional; an
``--out`` that cannot be created as a directory; ``replay`` into the
original run's directory; an out-of-range setting: ``mc_samples``,
``ensemble_members``, ``ece_bins``, ``histogram_bins`` or
``train_mc_samples`` below 1, a negative epoch count, a hidden width
below 1, a dropout rate or momentum outside [0, 1), a ``class_count``
below 2, a negative, NaN or infinite ``ce_pe_lambda``, learning rate,
weight decay, epsilon or sigma; an empty train, validation or test
split; the ``flip`` protocol or ``flip_gain`` objective on a non-binary
task; ``calibrated_ce`` on fewer than 2 validation rows; an attack clip
range that excludes a row it attacks: of the test split for the
``attack`` protocol, of the train split for ``adversarial_training``; an
empty or repeated ``compare --methods`` list), 3 data error
(also a loaded dataset with fewer than two classes, an IDX file that
cannot be opened, an IDX image file whose header declares 0 rows or 0
columns per image, a NaN or
out-of-range split fraction, a non-finite noise level), 4 engine error
(an ``nn.EngineError``: a training failure such as a non-finite forward
pass, or a bad checkpoint, also one of another kind than the run's method
writes, with a non-finite calibration breakpoint or level, or with a
non-finite weight or bias or a parameter array whose length does not
match its layer's shape).
Every report comes from ``experiment``: ``evaluate`` and the protocol
subcommands print what ``train`` stores for the same config.
A run whose training diverged keeps its selected model, exits 0 and
records ``"diverged": true`` in the manifest.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiment, training
from .data import DataError
from .experiment import ConfigError, ExperimentConfig
from .nn import EngineError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ENGINE = 4

# (flag, config section or None for a top-level field, field, argparse keywords)
CONFIG_FLAGS = (
    ("--method", None, "method", {"choices": experiment.METHODS}),
    ("--seed", None, "seed", {"type": int}),
    ("--dataset", "dataset", "kind",
     {"metavar": "DATASET_KIND", "help": "two_moons | gaussian_blobs | rings | idx"}),
    ("--n", "dataset", "n", {"type": int, "help": "dataset size"}),
    ("--noise", "dataset", "noise", {"type": float}),
    ("--class-count", "dataset", "class_count", {"type": int}),
    ("--dim", "dataset", "dim", {"type": int, "help": "blob input dimension"}),
    ("--binary-positive", "dataset", "binary_positive_class",
     {"type": int, "help": "reduce to one-vs-rest on this class"}),
    ("--images", "dataset", "images_path", {"help": "IDX image file"}),
    ("--labels", "dataset", "labels_path", {"help": "IDX label file"}),
    # a string, parsed by _put_flags so a bad value is a ConfigError
    ("--hidden", "model", "hidden",
     {"help": "comma-separated hidden widths, e.g. 32,32"}),
    ("--dropout", "model", "dropout_rate", {"type": float}),
    ("--pretrain-epochs", "schedule", "pretrain_epochs", {"type": int}),
    ("--euat-epochs", "schedule", "euat_epochs", {"type": int}),
    ("--lr", "schedule", "pretrain_lr",
     {"type": float, "help": "pretraining learning rate"}),
    ("--euat-lr", "schedule", "euat_lr", {"type": float}),
    ("--batch-size", "schedule", "batch_size", {"type": int}),
    ("--selection-metric", "schedule", "selection_metric",
     {"choices": training.SELECTION_METRICS}),
    ("--mc-samples", None, "mc_samples", {"type": int}),
    ("--ce-pe-lambda", None, "ce_pe_lambda", {"type": float}),
    ("--ensemble-members", None, "ensemble_members", {"type": int}),
    ("--adversarial", None, "adversarial_training",
     {"action": "store_true", "default": None, "help": "train on attacked mini-batches"}),
    ("--epsilon", "attack", "epsilon", {"type": float, "help": "attack L-inf bound"}),
    ("--sigma", "corruption", "sigma", {"type": float, "help": "OOD corruption noise"}),
    ("--protocols", None, "protocols",
     {"help": "comma-separated subset of clean,flip,ood,attack"}),
)

# protocol subcommand -> (protocol, help, report title, the config flag it takes)
PROTOCOL_COMMANDS = {
    "flip-eval": ("flip", "binary class-inversion protocol", "flipping protocol", None),
    "ood-eval": ("ood", "Gaussian-noise OOD protocol", "noise OOD protocol", "--sigma"),
    "attack-eval": (
        "attack", "gradient-sign attack protocol", "attack protocol", "--epsilon"
    ),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_config_flags(parser):
    parser.add_argument("--config", help="JSON config file")
    for flag, _, _, keywords in CONFIG_FLAGS:
        parser.add_argument(flag, **keywords)


def _put_flags(doc: dict, args):
    """Write every config flag ``args`` holds a value for into the config
    document ``doc``; an unset flag keeps the document's value."""
    for flag, section, field, _ in CONFIG_FLAGS:
        value = getattr(args, _dest(flag), None)
        if value is None:
            continue
        if flag in ("--hidden", "--protocols"):
            value = [v for v in value.split(",") if v]
        if flag == "--hidden":
            try:
                value = [int(w) for w in value]
            except ValueError as exc:
                raise ConfigError(f"bad --hidden value {args.hidden!r}") from exc
        target = doc if section is None else doc.setdefault(section, {})
        if not isinstance(target, dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
        target[field] = value


def _resolve_config(args) -> ExperimentConfig:
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        # also a file that is not UTF-8 or an integer of over 4,300 digits
        except ValueError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("a config must be a JSON object")
    _put_flags(doc, args)
    return ExperimentConfig.from_dict(doc)


def _print_report(report: dict, title: str):
    print(f"== {title} ==")
    for key, value in report.items():
        if isinstance(value, dict):
            continue
        print(f"  {key}: {value}")


def cmd_train(args) -> int:
    config = _resolve_config(args)
    manifest = experiment.run_experiment(config, args.out)
    _print_report(manifest["reports"]["clean"], f"{config.method}: clean test metrics")
    print(f"tuned threshold: {manifest['tuned_threshold']}")
    print(f"artifacts in {args.out}")
    return EXIT_OK


def _loaded_run(args, protocol=None):
    """Reload a finished run. For a protocol subcommand the config is rebuilt
    with ``protocol`` listed and the subcommand's flag applied (unset keeps
    the stored value), so it is checked like a ``train`` config."""
    config, predictor, manifest = experiment.load_run(args.run_dir)
    if protocol is not None:
        doc = config.to_dict()
        if protocol not in doc["protocols"]:
            doc["protocols"].append(protocol)
        _put_flags(doc, args)
        config = ExperimentConfig.from_dict(doc)
    dataset = experiment.build_dataset(config)
    threshold = manifest["tuned_threshold"]
    return config, predictor, dataset, threshold


def cmd_evaluate(args) -> int:
    config, predictor, dataset, threshold = _loaded_run(args)
    _, _, report = experiment.protocol_eval(
        "clean", predictor, dataset, threshold, config, args.split
    )
    _print_report(report, f"{config.method}: {args.split} metrics")
    return EXIT_OK


def cmd_protocol_eval(args) -> int:
    protocol, _, title, _ = PROTOCOL_COMMANDS[args.command]
    config, predictor, dataset, threshold = _loaded_run(args, protocol)
    _, _, report = experiment.protocol_eval(
        protocol, predictor, dataset, threshold, config
    )
    _print_report(report, f"{config.method}: {title}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _resolve_config(args)
    methods = [m for m in args.methods.split(",") if m]
    result = experiment.compare_methods(config, methods, args.out)
    header = ["metric"] + result["methods"]
    print("  ".join(f"{h:>14}" for h in header))
    for row in result["table"]:
        cells = [row[0]] + [
            "-" if v is None else f"{v:.6f}" if isinstance(v, float) else str(v)
            for v in row[1:]
        ]
        print("  ".join(f"{c:>14}" for c in cells))
    print(f"table written to {args.out}/compare.csv")
    return EXIT_OK


def cmd_replay(args) -> int:
    result = experiment.replay(args.manifest, args.out)
    for name, same in result["files"].items():
        print(f"  {name}: {'identical' if same else 'MISMATCH'}")
    if not result["identical"]:
        print("replay FAILED to reproduce the original reports")
        return EXIT_MISMATCH
    print("replay reproduced all reports byte-exactly")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euatlab",
        description="train and evaluate uncertainty-aware classifiers at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a method and evaluate on the test split")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="re-evaluate a finished run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--split", default="test", choices=("train", "validation", "test"))
    p.set_defaults(fn=cmd_evaluate)

    flag_types = {flag: keywords.get("type") for flag, _, _, keywords in CONFIG_FLAGS}
    for command, (_, help_text, _, flag) in PROTOCOL_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--run-dir", required=True)
        if flag is not None:
            p.add_argument(flag, type=flag_types[flag])
        p.set_defaults(fn=cmd_protocol_eval)

    p = sub.add_parser("compare", help="run several methods on one dataset")
    _add_config_flags(p)
    p.add_argument("--methods", default="euat,ce")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("replay", help="re-execute a manifest and verify reports")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
