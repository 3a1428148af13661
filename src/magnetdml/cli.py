"""Experiment-runner command line.

Subcommands:
  gen-data <spec.json> <out.csv>          draw a dataset from a mixture spec
  train <config> <outdir>                 run training, emit metrics/report/checkpoint
  eval <run-dir> <dataset> <outdir>       report a finished run's model on a dataset
  bench <config...> --target <e>          compare iterations-to-target error
  grad-check <config>                     finite-difference check of every objective
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .config import parse_config
from .data import MixtureSpec, generate_mixture, load_dataset, save_dataset
from .errors import ConfigurationError, ContractError, ParseError
from .gradcheck import check_all_objectives
from .training import (bench, build_report, load_run_config, resolve_datasets, train,
                       write_metrics_csv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="magnetdml", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset from a mixture spec JSON")
    p.add_argument("spec")
    p.add_argument("out")
    p.add_argument("--attributes-out", default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train per a config file")
    p.add_argument("config")
    p.add_argument("outdir")
    p.add_argument("--resume", default=None, help="directory with a saved training state")

    p = sub.add_parser("eval", help="report a finished run's model on a dataset")
    p.add_argument("run_dir", metavar="run-dir", help="the outdir of a train run")
    p.add_argument("dataset")
    p.add_argument("outdir")

    p = sub.add_parser("bench", help="compare objectives on a shared benchmark")
    p.add_argument("configs", nargs="+")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--outdir", default=None)

    p = sub.add_parser("grad-check", help="finite-difference check of every objective")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--tolerance", type=float, default=1e-4)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigurationError, ParseError, ContractError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "gen-data":
        spec = MixtureSpec.from_json(args.spec)
        dataset = generate_mixture(spec, seed=args.seed)
        save_dataset(dataset, args.out, attributes_path=args.attributes_out)
        print(f"wrote {dataset.size} examples ({dataset.class_count} classes) to {args.out}")
        return 0

    if args.command == "train":
        config = parse_config(args.config)
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        result = train(config, resume_from=args.resume, checkpoint_dir=outdir)
        # train() has saved training_state.json, the resume point at the last
        # refresh boundary, and checkpoint.bin, the final model, to outdir
        write_metrics_csv(result.metrics, outdir / "metrics.csv")
        return _write_report(config, result, outdir)

    if args.command == "eval":
        # the run's last state, resumed without saving, reports on the dataset
        # as the run reported on its test split
        config = load_run_config(args.run_dir)
        train_data, _ = resolve_datasets(config)
        dataset = load_dataset(args.dataset)
        unseen = sorted(set(dataset.raw_labels) - set(train_data.raw_labels))
        if unseen:
            raise ConfigurationError(
                f"the test set has labels {unseen} that the training set does not have")
        # labels are numbered densely per file: another class count shifts them
        if dataset.class_count != train_data.class_count:
            raise ConfigurationError(f"the test set has {dataset.class_count} classes, "
                                     f"the training set has {train_data.class_count}")
        result = train(config, train_data, dataset, resume_from=args.run_dir)
        return _write_report(config, result, Path(args.outdir))

    if args.command == "bench":
        if not math.isfinite(args.target):
            raise ConfigurationError(f"--target must be finite, got {args.target}")
        configs = [parse_config(c) for c in args.configs]
        rows = bench(configs, args.target)
        print(f"{'objective':<10} {'iters_to_target':>16} {'asymptotic':>11} {'ratio':>7}")
        for row in rows:
            reached = "never" if row.iterations_to_target is None else str(row.iterations_to_target)
            ratio = "n/a" if row.ratio_to_first is None else f"{row.ratio_to_first:.2f}"
            print(f"{row.objective:<10} {reached:>16} {row.asymptotic_error:>11.4f} {ratio:>7}")
        if args.outdir:
            outdir = Path(args.outdir)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "bench.json").write_text(json.dumps(list(map(vars, rows)), indent=2) + "\n")
        return 0

    if args.command == "grad-check":
        if not (math.isfinite(args.tolerance) and args.tolerance > 0):
            raise ConfigurationError(
                f"--tolerance must be positive and finite, got {args.tolerance}")
        overrides = {}  # without a config, check_all_objectives' own layer_dims and seed
        if args.config is not None:
            config = parse_config(args.config)
            overrides = {"layer_dims": tuple(config.layer_dims), "seed": config.seed}
        reports = check_all_objectives(tolerance=args.tolerance, **overrides)
        failed = False
        for name, report in sorted(reports.items()):
            status = "pass" if report.passed else "FAIL"
            print(
                f"{name:<8} {status}  max_rel_err={report.max_relative_error:.3e} "
                f"checked={report.checked} skipped={report.skipped}"
            )
            failed |= not report.passed
        return 1 if failed else 0

    raise ConfigurationError(f"unknown command {args.command!r}")


def _write_report(config, result, outdir) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    report = build_report(config, result)
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"final error: {report['error_rate']:.4f} ({report['metric']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
