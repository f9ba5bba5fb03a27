"""Command-line entry point for the experiment runners.

Subcommands: gap, snr, weights, collapse, train, fit, selftest.  All shared
flags have the same meaning everywhere; `--config` supplies a JSON file whose
fields mirror the spec and are overridden by explicit flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (ExperimentSpec, fit_gap_table, read_table, render_svg,
                          run_collapse_experiment, run_gap_experiment,
                          run_snr_experiment, run_train_experiment,
                          run_weights_experiment, selftest, write_table)

_RUNNERS = {
    "gap": run_gap_experiment,
    "snr": run_snr_experiment,
    "weights": run_weights_experiment,
    "collapse": run_collapse_experiment,
    "train": run_train_experiment,
}

_PLOT_Y = {
    "gap": ["mean_gap", "pred_1n_fit", "pred_ev_fit"],
    "snr": ["snr_mean"],
    "weights": ["count"],
    "collapse": ["t_mean", "max_share_mean"],
    "train": ["gap_mean"],
}

_PLOT_X = {"gap": "N", "snr": "N", "collapse": "N", "weights": "bin_lo", "train": "epoch"}


def _add_shared(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with ExperimentSpec fields")
    p.add_argument("--model", choices=["toy", "lingauss"])
    p.add_argument("--alpha", type=float, nargs="+", dest="alphas")
    p.add_argument("--d", type=int, nargs="+", dest="ds")
    p.add_argument("--n-grid", type=int, nargs="+", dest="n_grid")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sigma-perturb", type=float, nargs="+", dest="sigma_perturbs")
    p.add_argument("--estimator", choices=["rep", "drep"])
    p.add_argument("--theta-scale", type=float, dest="theta_scale")
    p.add_argument("--weight-samples", type=int, dest="weight_samples")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--optimizer", choices=["sgd", "adam"])
    p.add_argument("--n-importance", type=int, dest="n_importance")
    p.add_argument("--log-every", type=int, dest="log_every")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--plot", help="optional SVG output path")


def _build_spec(kind: str, args: argparse.Namespace) -> ExperimentSpec:
    fields: dict = {"kind": kind, "seed": 0}
    if args.config:
        with open(args.config) as f:
            config = json.load(f)
        if not isinstance(config, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        fields.update(config)
        unknown = sorted(set(fields) - set(ExperimentSpec.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config key(s) {', '.join(unknown)} in {args.config}")
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            fields[key] = value
    fields["kind"] = kind
    return ExperimentSpec(**fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vriwae",
                                     description="VR-IWAE bound experiments on analytic testbeds")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _RUNNERS:
        p = sub.add_parser(kind)
        _add_shared(p)
    p_fit = sub.add_parser("fit", help="re-fit curve constants from a gap CSV")
    p_fit.add_argument("gap_csv")
    p_fit.add_argument("--out")
    p_self = sub.add_parser("selftest")
    p_self.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "selftest":
        report = selftest(args.seed)
        for name, passed, detail in report.checks:
            status = "PASS" if passed else "FAIL"
            print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
        return 0 if report.ok else 1

    if args.command == "fit":
        rows, _ = read_table(args.gap_csv)
        result = json.dumps(fit_gap_table(rows), indent=1)
        if args.out:
            with open(args.out, "w") as f:
                f.write(result + "\n")
        else:
            print(result)
        return 0

    try:
        spec = _build_spec(args.command, args)
    except ValueError as exc:   # an invalid spec stops here, before any work or file
        parser.error(f"{args.command}: {exc}")
    rows = _RUNNERS[args.command](spec)
    text = write_table(rows, spec, path=spec.out)
    if not spec.out:
        sys.stdout.write(text)
    if spec.plot:
        y_cols = [c for c in _PLOT_Y[args.command] if rows and c in rows[0]]
        x_col = _PLOT_X[args.command] if rows and _PLOT_X[args.command] in rows[0] \
            else list(rows[0].keys())[0]
        render_svg(rows, x_col, y_cols, spec.plot)
    return 0


if __name__ == "__main__":
    sys.exit(main())
