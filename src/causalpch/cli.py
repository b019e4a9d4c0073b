"""Command-line front end and the on-disk file formats.

Subcommands::

    fit            sample the hazard-model posterior; writes draws.csv + meta.json
    gcomp          posterior g-computation; writes surv_ref/surv_trt/ate.csv
    summarize      posterior summary table for any draws-style CSV
    diag           Gelman-Rubin diagnostics across chain files
    hazard-export  plot-ready baseline hazard (posterior band + MLE overlay)

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure. Every CSV is read by ``dataset.read_csv``, which reports a ragged
file by its row, and written by ``_write_csv``; meta.json and gcomp_meta.json
are written by ``_write_json`` and read by ``read_meta_json``. Floats are
serialized with 17 significant digits, so emitted CSVs re-parse bit-exactly.
draws.csv stores constrained parameters per retained draw: theta_1..theta_K
(log baseline-hazard levels), one column per formula term, eta, rho (AR1
only), nu_1..nu_K, then chain and iter labels. A meta.json whose design,
terms or partition disagree with each other or with draws.csv exits 2.
The fit's time and event columns are the ones its formula's Surv() names.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import load_csv, read_csv
from .diagnostics import _quantiles, psrf, summarize
from .errors import CausalPchError, DataError, NumericalError
from .formula import DesignMatrix, Term, parse_formula
from .freq_oracle import pch_mle
from .gcomp import gcompute
from .hazard_model import (AR1, INDEPENDENT, Partition, PriorConfig,
                           expand_person_time)
from .sampler import HazardPosterior, SamplerConfig, _draw_labels, sample

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_BOOKKEEPING = ("chain", "iter")

# SamplerConfig fields that meta.json records; threads does not change the draws
_RECORDED = tuple(f.name for f in fields(SamplerConfig) if f.name != "threads")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------- file I/O

def _write_csv(path, header, rows) -> None:
    """Header line, then one line per row. A column whose first cell is a
    str is written as it is, any other with 17 significant digits, so that
    it re-parses bit-exactly."""
    line = ",".join("%s" if isinstance(cell, str) else "%.17g"
                    for cell in next(iter(rows), ())) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def _write_json(path, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_draws_csv(posterior: HazardPosterior, path) -> None:
    _write_csv(path, list(posterior.param_names) + list(_BOOKKEEPING),
               np.column_stack([posterior.draws, posterior.chain_ids,
                                posterior.iter_ids]))


def write_matrix_csv(path, header: list[str], mat: np.ndarray) -> None:
    _write_csv(path, header, np.atleast_2d(mat))


def write_meta_json(posterior: HazardPosterior, path, data_path="") -> None:
    design = posterior.design
    _write_json(path, {
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
    })


def read_numeric_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a header-plus-floats CSV (draws.csv, ate.csv, ...)."""
    header, rows = read_csv(path)
    try:
        return header, np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell ({exc})") from None


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
    if names[-2:] != list(_BOOKKEEPING):
        raise DataError(f"{draws_path}: the last two columns are not "
                        f"{' and '.join(_BOOKKEEPING)}")
    try:
        config = SamplerConfig(**{name: meta[name] for name in _RECORDED})
        fit = dict(
            partition=Partition(endpoints=np.asarray(
                meta["partition"]["endpoints"], dtype=float)),
            model_kind=meta["model_kind"], sigma=meta["sigma"],
            formula=meta["formula"], treat_col=meta["treat_col"],
            design=DesignMatrix(
                X=np.asarray(meta["design_matrix"], dtype=float),
                columns=tuple(meta["design_columns"]),
                terms=tuple(Term(tuple(c)) for c in meta["terms"]),
                y=np.asarray(meta["y"], dtype=float),
                delta=np.asarray(meta["delta"], dtype=float)),
            accept_rate=tuple(meta["accept_rate"]),
            divergences=tuple(meta["divergences"]),
            step_sizes=tuple(meta["step_sizes"]), rng_name=meta["rng"])
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{meta_path}: missing or malformed field ({exc})") from None

    labels = _draw_labels(config.chains, config.post_iter)
    if not np.array_equal(mat[:, -2:], np.column_stack(labels)):
        raise DataError(f"{draws_path}: chain/iter labels are not those of "
                        f"the {config.chains} x {config.post_iter} draws "
                        f"{meta_path} records")
    posterior = HazardPosterior(draws=mat[:, :-2], chain_ids=labels[0],
                                iter_ids=labels[1], config=config, **fit)
    expected = list(posterior.param_names) + list(_BOOKKEEPING)
    if names != expected:
        raise DataError(
            f"{draws_path}: columns do not match {meta_path} "
            f"(expected {len(expected)} columns starting "
            f"theta_1..theta_{posterior.K}, got {len(names)})")
    return posterior


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
    dataset = load_csv(data_path, time_col=spec.time_var,
                       event_col=spec.event_var,
                       treat_col=settings.get("treat_col") or "A")
    prior = _from_settings(PriorConfig, settings)
    sampler_config = _from_settings(SamplerConfig, settings)

    posterior = sample(dataset, spec, prior, sampler_config)

    out_dir = Path(settings.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_draws_csv(posterior, out_dir / "draws.csv")
    write_meta_json(posterior, out_dir / "meta.json", data_path=data_path)
    print(f"wrote {out_dir / 'draws.csv'} ({len(posterior.draws)} draws, "
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
    header = ["%.17g" % t for t in result.times]
    write_matrix_csv(out_dir / "surv_ref.csv", header, result.surv_ref)
    write_matrix_csv(out_dir / "surv_trt.csv", header, result.surv_trt)
    write_matrix_csv(out_dir / "ate.csv", header, result.ate)
    _write_json(out_dir / "gcomp_meta.json", {
        "ref": result.ref_level, "B": result.B, "grid": result.grid_source,
        "times": result.times.tolist(), "seed": result.seed,
        "draws_file": str(args.draws), "version": __version__})
    print(f"wrote surv_ref.csv, surv_trt.csv, ate.csv, gcomp_meta.json "
          f"to {out_dir} ({result.ate.shape[0]} draws x "
          f"{result.ate.shape[1]} times)")
    return EXIT_OK


def _split_chains(names: list[str], mat: np.ndarray, path):
    """Split a draws-style matrix on its chain column; drop bookkeeping."""
    keep = [j for j, n in enumerate(names) if n not in _BOOKKEEPING]
    kept_names = [names[j] for j in keep]
    if "chain" in names:
        chain = mat[:, names.index("chain")]
        ok = np.isfinite(chain) & (chain >= 1) & (np.floor(chain) == chain)
        bad = np.nonzero(~ok)[0]
        if bad.size:
            raise DataError(f"{path}: chain labels must be integers >= 1; "
                            f"row {bad[0] + 1} has {chain[bad[0]]!r}")
        blocks = [mat[chain == c][:, keep] for c in sorted(set(chain))]
    else:
        blocks = [mat[:, keep]]
    return kept_names, blocks


def cmd_summarize(args) -> int:
    names, mat = read_numeric_csv(args.file)
    kept_names, blocks = _split_chains(names, mat, args.file)
    try:
        probs = tuple(float(v) for v in args.probs.split(","))
    except ValueError:
        raise _UsageError(f"--probs must be comma-separated numbers, "
                          f"got {args.probs!r}") from None
    table = summarize(blocks, probs=probs, names=kept_names)
    print(table.to_text())
    out = Path(args.out)
    _write_csv(out, ["param", "mean", "sd", "naive_se", "ts_se"]
               + [f"q{p:g}" for p in probs],
               [[name, table.mean[i], table.sd[i], table.naive_se[i],
                 table.ts_se[i], *table.quantiles[i]]
                for i, name in enumerate(table.names)])
    print(f"\nwrote {out}")
    return EXIT_OK


def cmd_diag(args) -> int:
    all_names = None
    chains = []
    for path in args.files:
        names, mat = read_numeric_csv(path)
        kept_names, blocks = _split_chains(names, mat, path)
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
    _write_csv(out, ["param", "point_est", "upper_ci"],
               list(zip(report.names, report.point, report.upper)))
    print(f"\nwrote {out}")
    return EXIT_OK


def cmd_hazard_export(args) -> int:
    posterior = posterior_from_files(args.draws, args.meta)
    if not 0 < args.level < 1:
        raise _UsageError(f"--level must be in (0, 1), got {args.level}")
    hazards = posterior.hazard_draws
    lo_p, hi_p = (1 - args.level) / 2, 1 - (1 - args.level) / 2
    post_mean = hazards.mean(axis=0)
    lo, hi = _quantiles(hazards, (lo_p, hi_p))
    person_time = expand_person_time(posterior.design.y, posterior.partition)
    mle = pch_mle(posterior.design, person_time, partition=posterior.partition)
    out = Path(args.out)
    _write_csv(out, ["midpoint", "post_mean", "lo", "hi", "mle_hazard"],
               np.column_stack([posterior.partition.midpoints, post_mean, lo,
                                hi, mle.theta_hat]))
    print(f"wrote {out} ({posterior.K} intervals, "
          f"MLE converged={mle.converged})")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _add_fit_flags(fit: _Parser) -> _Parser:
    """Flags that set a PriorConfig/SamplerConfig field have its name as dest;
    all default to None, so --config, then the class, fill what is not given."""
    fit.add_argument("--data", help="subject-level CSV file")
    fit.add_argument("--formula", help='e.g. "Surv(y, delta) ~ A + age"')
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
