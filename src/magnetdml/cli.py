"""Experiment-runner command line.

Subcommands:
  gen-data <spec.json> <out.csv>          draw a dataset from a mixture spec
  train <config> <outdir>                 run training, emit metrics/report/checkpoint
  eval <checkpoint> <dataset> <outdir>    evaluate a saved model on a dataset
  bench <config...> --target <e>          compare iterations-to-target error
  grad-check <config>                     finite-difference check of every objective
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ExperimentConfig, parse_config
from .data import MixtureSpec, generate_mixture, load_dataset, save_dataset
from .errors import ConfigurationError, ContractError, ParseError
from .evaluate import classify_batch, error_rate, knc_context, soft_knn_context
from .gradcheck import check_all_objectives
from .model import EmbeddingModel
from .training import bench, build_report, train, write_metrics_csv

# the objectives a bare checkpoint classifies for
EVAL_OBJECTIVES = ("magnet", "triplet", "nca")


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

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("outdir")
    p.add_argument("--train-dataset", default=None,
                   help="reference dataset (defaults to the evaluated dataset)")
    p.add_argument("--objective", default="magnet", choices=EVAL_OBJECTIVES,
                   help="magnet: nearest cluster over a K-means index (kNC); triplet, "
                        "nca: soft kNN. A checkpoint holds no NCM centroids or softmax "
                        "head, so ncm, ncmc and softmax cannot be evaluated from one")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l", type=int, default=128)
    p.add_argument("--sigma2", type=float, default=None,
                   help="kernel variance (default: index variance)")

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
    except (ConfigurationError, ParseError, ContractError, OSError) as exc:
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
        # train() has saved checkpoint.bin and training_state.json to outdir
        write_metrics_csv(result.metrics, outdir / "metrics.csv")
        report = build_report(config, result)
        (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        print(f"final error: {report['error_rate']:.4f} ({report['metric']})")
        return 0

    if args.command == "eval":
        model = EmbeddingModel.load(args.checkpoint)
        test = load_dataset(args.dataset)
        refs = load_dataset(args.train_dataset) if args.train_dataset else test
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        reps = model.embed(refs.inputs)
        if args.objective == "magnet":
            ctx = knc_context(reps, refs.labels, args.k, 0, args.sigma2, l=args.l)
            metric = "knc"
        else:
            ctx = soft_knn_context(reps, refs.labels, args.sigma2, l=args.l)
            metric = "soft_knn"
        preds = classify_batch(ctx, model.embed(test.inputs))
        report = {
            "metric": metric,
            "error_rate": error_rate(preds, test.labels),
            "sigma2": ctx.sigma2,
        }
        (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        print(f"error: {report['error_rate']:.4f} ({metric})")
        return 0

    if args.command == "bench":
        configs = [parse_config(c) for c in args.configs]
        rows = bench(configs, args.target)
        table = []
        print(f"{'objective':<10} {'iters_to_target':>16} {'asymptotic':>11} {'ratio':>7}")
        for row in rows:
            reached = "never" if row.iterations_to_target is None else str(row.iterations_to_target)
            ratio = "n/a" if row.ratio_to_first is None else f"{row.ratio_to_first:.2f}"
            print(f"{row.objective:<10} {reached:>16} {row.asymptotic_error:>11.4f} {ratio:>7}")
            table.append({
                "objective": row.objective,
                "iterations_to_target": row.iterations_to_target,
                "asymptotic_error": row.asymptotic_error,
                "ratio_to_first": row.ratio_to_first,
            })
        if args.outdir:
            outdir = Path(args.outdir)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "bench.json").write_text(json.dumps(table, indent=2) + "\n")
        return 0

    if args.command == "grad-check":
        layer_dims = (10, 16, 8)
        seed = 0
        if args.config is not None:
            config = parse_config(args.config)
            layer_dims = tuple(config.layer_dims)
            seed = config.seed
        reports = check_all_objectives(layer_dims, tolerance=args.tolerance, seed=seed)
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


if __name__ == "__main__":
    sys.exit(main())
