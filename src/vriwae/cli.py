"""Command-line entry point for the experiment runners.

Subcommands: gap, snr, weights, collapse, train, fit, selftest.  All shared
flags have the same meaning everywhere; `--config` supplies a JSON file whose
fields mirror the spec and are overridden by explicit flags.  `fit` writes
strict JSON: a constant that is NaN or infinite (no fit, or an overflowed
gamma^2) is null.

The parser is built once, at import, and `main` only parses.  Building it
(seven subcommands, five of them with a copy of the 19 shared flags) takes
1.3-1.8 ms on 2 cores, up to a third of a small gap or collapse call; built
at import, it is paid once per process, with the rest of the set-up, however
often a caller runs `main`.  Each parse returns a fresh namespace, so no
flag carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .experiments import (_FORMATS, _MODELS, ExperimentSpec, _Unrepresentable, fit_gap_table,
                          read_table, render_svg, run_collapse_experiment, run_gap_experiment,
                          run_snr_experiment, run_train_experiment,
                          run_weights_experiment, selftest, write_table)
from .train import _ESTIMATORS, _OPTIMIZERS, TrainingDiverged

_RUNNERS = {
    "gap": run_gap_experiment,
    "snr": run_snr_experiment,
    "weights": run_weights_experiment,
    "collapse": run_collapse_experiment,
    "train": run_train_experiment,
}

# per runner subcommand, the x column and the y columns of its --plot
_PLOT = {
    "gap": ("N", ["mean_gap", "pred_1n_fit", "pred_ev_fit"]),
    "snr": ("N", ["snr_mean"]),
    "weights": ("bin_lo", ["count"]),
    "collapse": ("N", ["t_mean", "max_share_mean"]),
    "train": ("epoch", ["gap_mean"]),
}


def _shared_flags() -> argparse.ArgumentParser:
    """The flags every runner subcommand takes, declared once and passed to
    each subparser as a parent."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="JSON file with ExperimentSpec fields")
    p.add_argument("--model", choices=_MODELS)
    p.add_argument("--alpha", type=float, nargs="+", dest="alphas")
    p.add_argument("--d", type=int, nargs="+", dest="ds")
    p.add_argument("--n-grid", type=int, nargs="+", dest="n_grid")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sigma-perturb", type=float, nargs="+", dest="sigma_perturbs")
    p.add_argument("--estimator", choices=_ESTIMATORS)
    p.add_argument("--theta-scale", type=float, dest="theta_scale")
    p.add_argument("--weight-samples", type=int, dest="weight_samples")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--optimizer", choices=_OPTIMIZERS)
    p.add_argument("--n-importance", type=int, dest="n_importance")
    p.add_argument("--log-every", type=int, dest="log_every")
    p.add_argument("--out")
    p.add_argument("--format", choices=_FORMATS)
    p.add_argument("--plot", help="optional SVG output path")
    return p


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vriwae",
                                     description="VR-IWAE bound experiments on analytic testbeds")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = _shared_flags()
    for kind in _RUNNERS:
        sub.add_parser(kind, parents=[shared])
    p_fit = sub.add_parser("fit", help="re-fit curve constants from a gap table (CSV or JSON)")
    p_fit.add_argument("gap_table")
    p_fit.add_argument("--out")
    p_self = sub.add_parser("selftest")
    p_self.add_argument("--seed", type=int, default=0)
    return parser


_PARSER = _parser()


def _check_output_dir(name: str, path) -> None:
    """A missing output directory, or an output path that is a directory,
    fails here, before any work, not after."""
    if path and os.path.isdir(path):
        raise ValueError(f"{name} {path} is a directory")
    parent = path and os.path.dirname(os.path.abspath(path))
    if parent and not os.path.isdir(parent):
        raise ValueError(f"{name} directory {parent} does not exist")


def _build_spec(kind: str, args: argparse.Namespace) -> ExperimentSpec:
    fields: dict = {"kind": kind, "seed": 0}
    if args.config:
        try:
            with open(args.config) as f:
                config = json.load(f)
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc.strerror}") from None
        if not isinstance(config, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        fields.update(config)
        unknown = sorted(set(fields) - set(ExperimentSpec.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config key(s) {', '.join(unknown)} in {args.config}")
        if fields["kind"] != kind:
            raise ValueError(f"kind {fields['kind']!r} in {args.config} is not the "
                             f"subcommand {kind!r}")
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            fields[key] = value
    spec = ExperimentSpec(**fields)
    for name in ("out", "plot"):
        _check_output_dir(name, getattr(spec, name))
    return spec


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    if args.command == "selftest":
        if not 0 <= args.seed < 2**64:
            _PARSER.error(f"selftest: seed must lie in [0, 2**64), got {args.seed}")
        report = selftest(args.seed)
        for name, passed, detail in report.checks:
            status = "PASS" if passed else "FAIL"
            print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
        return 0 if report.ok else 1

    if args.command == "fit":
        try:
            _check_output_dir("out", args.out)
        except ValueError as exc:
            _PARSER.error(f"fit: {exc}")
        try:
            rows, meta = read_table(args.gap_table)
            spec = json.loads(meta["spec"]) if "spec" in meta else {}
        except OSError as exc:
            _PARSER.error(f"fit: cannot read {args.gap_table}: {exc.strerror}")
        except ValueError as exc:
            _PARSER.error(f"fit: {args.gap_table} is not a vriwae table: {exc}")
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if kind != "gap":
            _PARSER.error(f"fit: {args.gap_table} holds a {kind or 'non-vriwae'} table, "
                          "not a gap table")
        try:
            # strict JSON: an unfitted or overflowed constant is null, not NaN
            fits = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
                     for k, v in row.items()} for row in fit_gap_table(rows)]
            result = json.dumps(fits, indent=1, allow_nan=False)
        except KeyError as exc:
            _PARSER.error(f"fit: {args.gap_table} is not a gap table: it has no column {exc}")
        except ValueError as exc:
            _PARSER.error(f"fit: {args.gap_table} is not a gap table: {exc}")
        if args.out:
            with open(args.out, "w") as f:
                f.write(result + "\n")
        else:
            print(result)
        return 0

    try:
        spec = _build_spec(args.command, args)
    except ValueError as exc:   # an invalid spec stops here, before any work or file
        _PARSER.error(f"{args.command}: {exc}")
    try:
        rows = _RUNNERS[args.command](spec)
    except _Unrepresentable as exc:    # numbers that overflow a float: an invalid spec
        _PARSER.error(f"{args.command}: {exc}")
    except TrainingDiverged as exc:     # a diverged run writes no table
        print(f"vriwae {args.command}: training diverged: {exc} with "
              f"--lr {spec.train_config().learning_rate:g}",
              file=sys.stderr)
        return 1
    text = write_table(rows, spec, path=spec.out)
    if not spec.out:
        sys.stdout.write(text)
    if spec.plot:
        render_svg(rows, *_PLOT[args.command], spec.plot)
    return 0


if __name__ == "__main__":
    sys.exit(main())
