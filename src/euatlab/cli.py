"""Command-line interface.

Subcommands: train, evaluate, flip-eval, ood-eval, attack-eval, compare,
replay. Configs come from a JSON file (--config) and/or flag overrides;
the resolved config is written verbatim into the run manifest.

Exit codes: 0 success, 1 ``replay`` mismatch, 2 config error (also a
missing or unreadable run manifest, one without a numeric tuned threshold,
or a run directory that lacks an original ``replay`` compares; an
out-of-range setting: ``mc_samples``, ``ensemble_members``, ``ece_bins``,
``histogram_bins`` or ``train_mc_samples`` below 1, a negative
``ce_pe_lambda`` or epoch count, a hidden width below 1, a dropout rate
outside [0, 1); an empty train, validation or test split), 3 data error,
4 engine error (an ``nn.EngineError``: a training failure such as a
non-finite forward pass, or a bad checkpoint).
A run whose training diverged keeps its selected model, exits 0 and
records ``"diverged": true`` in the manifest.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiment, metrics, rng
from .data import DataError
from .experiment import ConfigError, ExperimentConfig
from .nn import EngineError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ENGINE = 4


def _add_config_flags(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--method", choices=experiment.METHODS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dataset", dest="dataset_kind",
                        help="two_moons | gaussian_blobs | rings | idx")
    parser.add_argument("--n", type=int, help="dataset size")
    parser.add_argument("--noise", type=float)
    parser.add_argument("--class-count", type=int)
    parser.add_argument("--dim", type=int, help="blob input dimension")
    parser.add_argument("--binary-positive", type=int,
                        help="reduce to one-vs-rest on this class")
    parser.add_argument("--images", help="IDX image file")
    parser.add_argument("--labels", help="IDX label file")
    parser.add_argument("--hidden", help="comma-separated hidden widths, e.g. 32,32")
    parser.add_argument("--dropout", type=float)
    parser.add_argument("--pretrain-epochs", type=int)
    parser.add_argument("--euat-epochs", type=int)
    parser.add_argument("--lr", type=float, help="pretraining learning rate")
    parser.add_argument("--euat-lr", type=float)
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--selection-metric", choices=("ua", "uauc", "corr",
                                                       "wasserstein", "error"))
    parser.add_argument("--mc-samples", type=int)
    parser.add_argument("--ce-pe-lambda", type=float)
    parser.add_argument("--ensemble-members", type=int)
    parser.add_argument("--adversarial", action="store_true", default=None,
                        help="train on attacked mini-batches")
    parser.add_argument("--epsilon", type=float, help="attack L-inf bound")
    parser.add_argument("--sigma", type=float, help="OOD corruption noise")
    parser.add_argument("--protocols",
                        help="comma-separated subset of clean,flip,ood,attack")


def _resolve_config(args) -> ExperimentConfig:
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
    doc.setdefault("dataset", {})
    doc.setdefault("model", {})
    doc.setdefault("schedule", {})
    doc.setdefault("attack", {})
    doc.setdefault("corruption", {})

    def put(section, key, value):
        if value is not None:
            section[key] = value

    put(doc, "method", args.method)
    put(doc, "seed", args.seed)
    put(doc["dataset"], "kind", args.dataset_kind)
    put(doc["dataset"], "n", args.n)
    put(doc["dataset"], "noise", args.noise)
    put(doc["dataset"], "class_count", args.class_count)
    put(doc["dataset"], "dim", args.dim)
    put(doc["dataset"], "binary_positive_class", args.binary_positive)
    put(doc["dataset"], "images_path", args.images)
    put(doc["dataset"], "labels_path", args.labels)
    if args.hidden is not None:
        try:
            doc["model"]["hidden"] = [int(w) for w in args.hidden.split(",") if w]
        except ValueError as exc:
            raise ConfigError(f"bad --hidden value {args.hidden!r}") from exc
    put(doc["model"], "dropout_rate", args.dropout)
    put(doc["schedule"], "pretrain_epochs", args.pretrain_epochs)
    put(doc["schedule"], "euat_epochs", args.euat_epochs)
    put(doc["schedule"], "pretrain_lr", args.lr)
    put(doc["schedule"], "euat_lr", args.euat_lr)
    put(doc["schedule"], "batch_size", args.batch_size)
    put(doc["schedule"], "selection_metric", args.selection_metric)
    put(doc, "mc_samples", args.mc_samples)
    put(doc, "ce_pe_lambda", args.ce_pe_lambda)
    put(doc, "ensemble_members", args.ensemble_members)
    put(doc, "adversarial_training", args.adversarial)
    put(doc["attack"], "epsilon", args.epsilon)
    put(doc["corruption"], "sigma", args.sigma)
    if args.protocols is not None:
        doc["protocols"] = [p for p in args.protocols.split(",") if p]
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


def _loaded_run(args, protocol=None, **overrides):
    """Reload a finished run. For a protocol subcommand the config is rebuilt
    with ``protocol`` listed and the given ``{section: {field: value}}`` flag
    overrides (None keeps the stored value), so it is checked like a
    ``train`` config."""
    config, predictor, manifest = experiment.load_run(args.run_dir)
    if protocol is not None:
        doc = config.to_dict()
        if protocol not in doc["protocols"]:
            doc["protocols"].append(protocol)
        for section, fields in overrides.items():
            doc[section].update((k, v) for k, v in fields.items() if v is not None)
        config = ExperimentConfig.from_dict(doc)
    dataset = experiment.build_dataset(config)
    threshold = manifest["tuned_threshold"]
    return config, predictor, dataset, threshold


def cmd_evaluate(args) -> int:
    config, predictor, dataset, threshold = _loaded_run(args)
    records = predictor.records(
        *dataset.split(args.split), rng.derive_seed(config.seed, "test-eval")
    )
    report = metrics.summarize(records, threshold, config.ece_bins)
    _print_report(report, f"{config.method}: {args.split} metrics")
    return EXIT_OK


def cmd_flip_eval(args) -> int:
    config, predictor, dataset, threshold = _loaded_run(args, "flip")
    report = experiment.flip_eval(
        predictor, *dataset.test, threshold,
        rng.derive_seed(config.seed, "flip-eval"), config.ece_bins,
    )
    _print_report(report, f"{config.method}: flipping protocol")
    return EXIT_OK


def cmd_ood_eval(args) -> int:
    config, predictor, dataset, threshold = _loaded_run(
        args, "ood", corruption={"sigma": args.sigma}
    )
    report = experiment.ood_eval(predictor, dataset, threshold, config)
    _print_report(report, f"{config.method}: noise OOD protocol")
    return EXIT_OK


def cmd_attack_eval(args) -> int:
    config, predictor, dataset, threshold = _loaded_run(
        args, "attack", attack={"epsilon": args.epsilon}
    )
    report = experiment.attack_eval(predictor, dataset, threshold, config)
    _print_report(report, f"{config.method}: attack protocol")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _resolve_config(args)
    methods = [m for m in args.methods.split(",") if m]
    for m in methods:
        if m not in experiment.METHODS:
            raise ConfigError(f"unknown method {m!r}")
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

    p = sub.add_parser("flip-eval", help="binary class-inversion protocol")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(fn=cmd_flip_eval)

    p = sub.add_parser("ood-eval", help="Gaussian-noise OOD protocol")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--sigma", type=float)
    p.set_defaults(fn=cmd_ood_eval)

    p = sub.add_parser("attack-eval", help="gradient-sign attack protocol")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--epsilon", type=float)
    p.set_defaults(fn=cmd_attack_eval)

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
