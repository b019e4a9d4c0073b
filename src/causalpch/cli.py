"""Command-line front end and the on-disk file formats.

Subcommands::

    fit            sample the hazard-model posterior; writes draws.csv + meta.json
    gcomp          posterior g-computation; writes surv_ref/surv_trt/ate.csv
    summarize      posterior summary table for any draws-style CSV
    diag           Gelman-Rubin diagnostics across chain files
    hazard-export  plot-ready baseline hazard (posterior band + MLE overlay)

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure. Floats are serialized with 17 significant digits, so emitted CSVs
re-parse bit-exactly. draws.csv stores constrained parameters per retained
draw: theta_1..theta_K (log baseline-hazard levels), one column per formula
term, eta, rho (AR1 only), nu_1..nu_K, then chain and iter labels.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import load_csv
from .diagnostics import psrf, summarize
from .errors import CausalPchError, DataError, NumericalError
from .formula import DesignMatrix, Term, parse_formula
from .freq_oracle import pch_mle
from .gcomp import gcompute
from .hazard_model import (AR1, INDEPENDENT, Partition, PriorConfig,
                           expand_person_time)
from .sampler import HazardPosterior, SamplerConfig, sample

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_BOOKKEEPING = ("chain", "iter")

# SamplerConfig fields that meta.json records; threads does not change the draws
_RECORDED = tuple(f.name for f in fields(SamplerConfig) if f.name != "threads")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------- file I/O

def write_draws_csv(posterior: HazardPosterior, path) -> None:
    names = list(posterior.param_names) + list(_BOOKKEEPING)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row, chain, it in zip(posterior.draws, posterior.chain_ids,
                                  posterior.iter_ids):
            fh.write(",".join(_fmt(v) for v in row)
                     + f",{int(chain)},{int(it)}\n")


def write_meta_json(posterior: HazardPosterior, path, data_path="") -> None:
    design = posterior.design
    meta = {
        "artifact": "causalpch",
        "version": __version__,
        "rng": posterior.rng_name,
        "model_kind": posterior.model_kind,
        "K": posterior.K,
        "sigma": posterior.sigma,
        "formula": posterior.formula,
        "treat_col": posterior.treat_col,
        **{name: getattr(posterior.config, name) for name in _RECORDED},
        "accept_rate": list(posterior.accept_rate),
        "divergences": list(posterior.divergences),
        "step_sizes": list(posterior.step_sizes),
        "partition": {
            "endpoints": posterior.partition.endpoints.tolist(),
            "midpoints": posterior.partition.midpoints.tolist(),
            "dtau": posterior.partition.dtau,
        },
        "terms": [list(t.components) for t in design.terms],
        "design_columns": list(design.columns),
        # the data slice downstream commands need (g-computation, MLE overlay)
        "design_matrix": design.X.tolist(),
        "y": design.y.tolist(),
        "delta": design.delta.tolist(),
        "n": design.n,
        "data_path": str(data_path),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_numeric_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a header-plus-floats CSV (draws.csv, ate.csv, ...)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        mat = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell ({exc})") from None
    if mat.shape[1] != len(header):
        raise DataError(f"{path}: ragged rows")
    return [h.strip() for h in header], mat


def read_meta_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def posterior_from_files(draws_path, meta_path) -> HazardPosterior:
    """Rebuild a HazardPosterior from draws.csv + meta.json."""
    meta = read_meta_json(meta_path)
    if not isinstance(meta, dict) or meta.get("artifact") != "causalpch":
        raise DataError(f"{meta_path}: not a causalpch fit record "
                        "(artifact is not 'causalpch')")
    names, mat = read_numeric_csv(draws_path)
    try:
        partition = Partition(endpoints=np.asarray(meta["partition"]["endpoints"]))
        terms = tuple(Term(tuple(c)) for c in meta["terms"])
        design = DesignMatrix(
            X=np.asarray(meta["design_matrix"], dtype=float),
            columns=tuple(meta["design_columns"]), terms=terms,
            y=np.asarray(meta["y"], dtype=float),
            delta=np.asarray(meta["delta"], dtype=float))
        config = SamplerConfig(**{name: meta[name] for name in _RECORDED})
        posterior = HazardPosterior(
            draws=np.empty((0, 0)), chain_ids=np.empty(0, int),
            iter_ids=np.empty(0, int), partition=partition,
            model_kind=meta["model_kind"], sigma=meta["sigma"],
            formula=meta["formula"], treat_col=meta["treat_col"], design=design,
            accept_rate=tuple(meta["accept_rate"]),
            divergences=tuple(meta["divergences"]),
            step_sizes=tuple(meta["step_sizes"]), config=config,
            rng_name=meta["rng"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"{meta_path}: missing or malformed field ({exc})") from None

    expected = list(posterior.param_names) + list(_BOOKKEEPING)
    if names != expected:
        raise DataError(
            f"{draws_path}: columns do not match {meta_path} "
            f"(expected {len(expected)} columns starting "
            f"theta_1..theta_{posterior.K}, got {len(names)})")
    labels = sorted(set(mat[:, -2].tolist()))  # np.unique imports numpy.ma
    if (len(mat) != config.chains * config.post_iter
            or not np.array_equal(labels, np.arange(1, config.chains + 1))):
        raise DataError(f"{draws_path}: {len(mat)} draws in chains {labels}, but "
                        f"{meta_path} records {config.chains} x {config.post_iter}")
    posterior.draws = mat[:, :-2]
    posterior.chain_ids = mat[:, -2].astype(int)
    posterior.iter_ids = mat[:, -1].astype(int)
    return posterior


def write_matrix_csv(path, header: list[str], mat: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.atleast_2d(mat):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------- commands

def _config_settings(path) -> dict:
    """--config JSON keys, each parsed as the fit flag it names; by dest."""
    raw = read_meta_json(path)
    if not isinstance(raw, dict):
        raise DataError(f"{path}: config must be a JSON object")
    flags = _add_fit_flags(_Parser(prog="causalpch fit --config",
                                   add_help=False, allow_abbrev=False))
    settings = {}
    for key, value in raw.items():
        try:
            parsed = flags.parse_args([f"--{key}={value}"])
        except _UsageError as exc:
            raise DataError(f"{path}: config key {key!r}: {exc}") from None
        settings.update((k, v) for k, v in vars(parsed).items() if v is not None)
    return settings


def _from_settings(cls, settings: dict):
    """``cls`` from the settings named by its fields; the rest take defaults."""
    return cls(**{f.name: settings[f.name] for f in fields(cls)
                  if f.name in settings})


def cmd_fit(args) -> int:
    settings = {**(_config_settings(args.config) if args.config else {}),
                **{k: v for k, v in vars(args).items() if v is not None}}
    data_path = settings.get("data")
    formula_text = settings.get("formula")
    if not data_path or not formula_text:
        raise _UsageError("fit requires --data and --formula "
                          "(directly or via --config)")
    spec = parse_formula(formula_text)
    time_col = settings.get("time_col") or spec.time_var
    event_col = settings.get("event_col") or spec.event_var
    if time_col != spec.time_var or event_col != spec.event_var:
        raise DataError(
            f"--time-col/--event-col ({time_col!r}, {event_col!r}) disagree "
            f"with the formula's Surv({spec.time_var}, {spec.event_var})")
    treat_col = settings.get("treat_col") or "A"

    dataset = load_csv(data_path, time_col=time_col, event_col=event_col,
                       treat_col=treat_col)
    prior = _from_settings(PriorConfig, settings)
    sampler_config = _from_settings(SamplerConfig, settings)

    posterior = sample(dataset, spec, prior, sampler_config)

    out_dir = Path(settings.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_draws_csv(posterior, out_dir / "draws.csv")
    write_meta_json(posterior, out_dir / "meta.json", data_path=data_path)
    total = sampler_config.chains * sampler_config.post_iter
    print(f"wrote {out_dir / 'draws.csv'} ({total} draws, "
          f"{len(posterior.param_names)} parameters) and "
          f"{out_dir / 'meta.json'}")
    for c, (rate, div) in enumerate(zip(posterior.accept_rate,
                                        posterior.divergences), start=1):
        print(f"chain {c}: accept rate {rate:.3f}, divergences {div}, "
              f"step size {posterior.step_sizes[c - 1]:.3g}")
    return EXIT_OK


def cmd_gcomp(args) -> int:
    posterior = posterior_from_files(args.draws, args.meta)
    times = None
    if args.times:
        try:
            times = np.array([float(v) for v in args.times.split(",")])
        except ValueError:
            raise _UsageError(f"--times must be comma-separated numbers, "
                              f"got {args.times!r}") from None
    result = gcompute(posterior, ref=args.ref, b=args.B, grid=times,
                      seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = [_fmt(t) for t in result.times]
    write_matrix_csv(out_dir / "surv_ref.csv", header, result.surv_ref)
    write_matrix_csv(out_dir / "surv_trt.csv", header, result.surv_trt)
    write_matrix_csv(out_dir / "ate.csv", header, result.ate)
    with open(out_dir / "gcomp_meta.json", "w", encoding="utf-8") as fh:
        json.dump({"ref": result.ref_level, "B": result.B,
                   "grid": result.grid_source,
                   "times": result.times.tolist(), "seed": result.seed,
                   "draws_file": str(args.draws), "version": __version__},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote surv_ref.csv, surv_trt.csv, ate.csv, gcomp_meta.json "
          f"to {out_dir} ({result.ate.shape[0]} draws x "
          f"{result.ate.shape[1]} times)")
    return EXIT_OK


def _split_chains(names: list[str], mat: np.ndarray):
    """Split a draws-style matrix on its chain column; drop bookkeeping."""
    keep = [j for j, n in enumerate(names) if n not in _BOOKKEEPING]
    kept_names = [names[j] for j in keep]
    if "chain" in names:
        chain = mat[:, names.index("chain")].astype(int)
        blocks = [mat[chain == c][:, keep] for c in sorted(set(chain))]
    else:
        blocks = [mat[:, keep]]
    return kept_names, blocks


def cmd_summarize(args) -> int:
    names, mat = read_numeric_csv(args.file)
    kept_names, blocks = _split_chains(names, mat)
    try:
        probs = tuple(float(v) for v in args.probs.split(","))
    except ValueError:
        raise _UsageError(f"--probs must be comma-separated numbers, "
                          f"got {args.probs!r}") from None
    table = summarize(blocks if len(blocks) > 1 else blocks[0],
                      probs=probs, names=kept_names)
    print(table.to_text())
    out = Path(args.out)
    header = (["param", "mean", "sd", "naive_se", "ts_se"]
              + [f"q{p:g}" for p in probs])
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i, name in enumerate(table.names):
            cells = [name, _fmt(table.mean[i]), _fmt(table.sd[i]),
                     _fmt(table.naive_se[i]), _fmt(table.ts_se[i])]
            cells += [_fmt(q) for q in table.quantiles[i]]
            fh.write(",".join(cells) + "\n")
    print(f"\nwrote {out}")
    return EXIT_OK


def cmd_diag(args) -> int:
    all_names = None
    chains = []
    for path in args.files:
        names, mat = read_numeric_csv(path)
        kept_names, blocks = _split_chains(names, mat)
        if all_names is None:
            all_names = kept_names
        elif kept_names != all_names:
            raise DataError(f"{path}: columns {kept_names} do not match "
                            f"{args.files[0]}: {all_names}")
        chains.extend(blocks)
    if len(chains) < 2:
        raise DataError("need at least 2 chains across the given files")
    report = psrf(chains, names=all_names)
    print(report.to_text())
    out = Path(args.out)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write("param,point_est,upper_ci\n")
        for i, name in enumerate(report.names):
            fh.write(f"{name},{_fmt(report.point[i])},{_fmt(report.upper[i])}\n")
    print(f"\nwrote {out}")
    return EXIT_OK


def cmd_hazard_export(args) -> int:
    posterior = posterior_from_files(args.draws, args.meta)
    if not 0 < args.level < 1:
        raise _UsageError(f"--level must be in (0, 1), got {args.level}")
    hazards = posterior.hazard_draws
    lo_p, hi_p = (1 - args.level) / 2, 1 - (1 - args.level) / 2
    post_mean = hazards.mean(axis=0)
    lo = np.quantile(hazards, lo_p, axis=0, method="linear")
    hi = np.quantile(hazards, hi_p, axis=0, method="linear")
    person_time = expand_person_time(posterior.design.y, posterior.partition)
    mle = pch_mle(posterior.design, person_time, partition=posterior.partition)
    out = Path(args.out)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write("midpoint,post_mean,lo,hi,mle_hazard\n")
        for k in range(posterior.K):
            cells = [posterior.partition.midpoints[k], post_mean[k], lo[k],
                     hi[k], mle.theta_hat[k]]
            fh.write(",".join(_fmt(v) for v in cells) + "\n")
    print(f"wrote {out} ({posterior.K} intervals, "
          f"MLE converged={mle.converged})")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _add_fit_flags(fit: _Parser) -> _Parser:
    """Flags that set a PriorConfig/SamplerConfig field have its name as dest;
    all default to None, so --config, then the class, fill what is not given."""
    fit.add_argument("--data", help="subject-level CSV file")
    fit.add_argument("--formula", help='e.g. "Surv(y, delta) ~ A + age"')
    fit.add_argument("--time-col", dest="time_col")
    fit.add_argument("--event-col", dest="event_col")
    fit.add_argument("--treat-col", dest="treat_col",
                     help="binary treatment column (default A)")
    fit.add_argument("--model", dest="model_kind", choices=[INDEPENDENT, AR1])
    fit.add_argument("--partitions", dest="K", type=int,
                     help=f"interval count K (default {PriorConfig.K})")
    fit.add_argument("--sigma", type=float, help="prior SD for coefficients "
                                                 f"(default {PriorConfig.sigma:g})")
    fit.add_argument("--warmup", type=int)
    fit.add_argument("--iters", dest="post_iter", type=int, metavar="ITERS",
                     help="retained draws per chain "
                          f"(default {SamplerConfig.post_iter})")
    fit.add_argument("--chains", type=int)
    fit.add_argument("--seed", type=int)
    fit.add_argument("--leapfrog-steps", dest="leapfrog_steps", type=int)
    fit.add_argument("--target-accept", dest="target_accept", type=float)
    fit.add_argument("--init-jitter", dest="init_jitter", type=float)
    fit.add_argument("--threads", type=int,
                     help="worker threads for chains, at least 1 (default "
                          f"{SamplerConfig.threads}; 1 runs the chains one "
                          "after another)")
    fit.add_argument("--out-dir", dest="out_dir")
    return fit


def build_parser() -> _Parser:
    parser = _Parser(prog="causalpch",
                     description="Bayesian piecewise-exponential hazard "
                                 "models with posterior g-computation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="sample the hazard-model posterior")
    _add_fit_flags(fit)
    fit.add_argument("--config", help="flat JSON config keyed by flag name; "
                                      "flags override it")
    fit.set_defaults(func=cmd_fit)

    gcomp = sub.add_parser("gcomp", help="posterior g-computation")
    gcomp.add_argument("--draws", required=True)
    gcomp.add_argument("--meta", required=True)
    gcomp.add_argument("--ref", type=int, choices=[0, 1], default=0)
    gcomp.add_argument("--B", type=int, default=1000,
                       help="Monte Carlo simulations per subject (default 1000)")
    gcomp.add_argument("--times", help="comma-separated times "
                                       "(default: partition midpoints)")
    gcomp.add_argument("--seed", type=int, default=None,
                       help="g-computation seed (default: the fit's seed)")
    gcomp.add_argument("--out-dir", dest="out_dir", default=".")
    gcomp.set_defaults(func=cmd_gcomp)

    summ = sub.add_parser("summarize", help="posterior summary table")
    summ.add_argument("--file", required=True)
    summ.add_argument("--probs", default="0.025,0.975")
    summ.add_argument("--out", default="summary.csv")
    summ.set_defaults(func=cmd_summarize)

    diag = sub.add_parser("diag", help="Gelman-Rubin diagnostics over chains")
    diag.add_argument("--files", nargs="+", required=True)
    diag.add_argument("--out", default="psrf.csv")
    diag.set_defaults(func=cmd_diag)

    export = sub.add_parser("hazard-export",
                            help="baseline-hazard plot data with MLE overlay")
    export.add_argument("--draws", required=True)
    export.add_argument("--meta", required=True)
    export.add_argument("--level", type=float, default=0.95,
                        help="credible mass (default 0.95)")
    export.add_argument("--out", default="hazard_export.csv")
    export.set_defaults(func=cmd_hazard_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CausalPchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
