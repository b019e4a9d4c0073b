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
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import load_csv
from .diagnostics import psrf, summarize
from .errors import CausalPchError, DataError, NumericalError
from .formula import DesignMatrix, Term, parse_formula
from .freq_oracle import pch_mle
from .gcomp import gcompute
from .hazard_model import Partition, PriorConfig, expand_person_time
from .sampler import HazardPosterior, SamplerConfig, sample

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_BOOKKEEPING = ("chain", "iter")


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
    cfg = posterior.config
    meta = {
        "artifact": "causalpch",
        "version": __version__,
        "rng": posterior.rng_name,
        "seed": cfg.seed,
        "model_kind": posterior.model_kind,
        "K": posterior.K,
        "sigma": posterior.sigma,
        "formula": posterior.formula,
        "treat_col": posterior.treat_col,
        "warmup": cfg.warmup,
        "post_iter": cfg.post_iter,
        "chains": cfg.chains,
        "leapfrog_steps": cfg.leapfrog_steps,
        "target_accept": cfg.target_accept,
        "init_jitter": cfg.init_jitter,
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
    names, mat = read_numeric_csv(draws_path)
    try:
        partition = Partition(endpoints=np.asarray(meta["partition"]["endpoints"]))
        terms = tuple(Term(tuple(c)) for c in meta["terms"])
        design = DesignMatrix(
            X=np.asarray(meta["design_matrix"], dtype=float),
            columns=tuple(meta["design_columns"]), terms=terms,
            y=np.asarray(meta["y"], dtype=float),
            delta=np.asarray(meta["delta"], dtype=float))
        config = SamplerConfig(
            warmup=meta["warmup"], post_iter=meta["post_iter"],
            chains=meta["chains"], seed=meta["seed"],
            leapfrog_steps=meta["leapfrog_steps"],
            target_accept=meta["target_accept"],
            init_jitter=meta.get("init_jitter", 1.0))
        posterior = HazardPosterior(
            draws=np.empty((0, 0)), chain_ids=np.empty(0, int),
            iter_ids=np.empty(0, int), partition=partition,
            model_kind=meta["model_kind"], sigma=meta["sigma"],
            formula=meta["formula"], term_names=tuple(meta["design_columns"]),
            treat_col=meta["treat_col"], design=design,
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

def _merge_config_file(args, parser_dests: set[str]) -> dict:
    """Load --config JSON (flat flag-name keys); explicit flags win."""
    if not getattr(args, "config", None):
        return {}
    raw = read_meta_json(args.config)
    if not isinstance(raw, dict):
        raise DataError(f"{args.config}: config must be a JSON object")
    out = {}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in parser_dests:
            raise DataError(f"{args.config}: unknown config key {key!r}")
        out[dest] = value
    return out


_FIT_DESTS = {"data", "formula", "time_col", "event_col", "treat_col", "model",
              "partitions", "sigma", "warmup", "iters", "chains", "seed",
              "leapfrog_steps", "target_accept", "init_jitter", "threads",
              "out_dir"}


def cmd_fit(args) -> int:
    file_cfg = _merge_config_file(args, _FIT_DESTS)
    def opt(name, cast=None):
        val = getattr(args, name)
        if val is None:
            val = file_cfg.get(name)
        if val is not None and cast is not None:
            try:
                val = cast(val)
            except (TypeError, ValueError):
                raise DataError(f"invalid value for {name!r}: {val!r}") from None
        return val

    data_path = opt("data")
    formula_text = opt("formula")
    if not data_path or not formula_text:
        raise _UsageError("fit requires --data and --formula "
                          "(directly or via --config)")
    spec = parse_formula(formula_text)
    time_col = opt("time_col") or spec.time_var
    event_col = opt("event_col") or spec.event_var
    if time_col != spec.time_var or event_col != spec.event_var:
        raise DataError(
            f"--time-col/--event-col ({time_col!r}, {event_col!r}) disagree "
            f"with the formula's Surv({spec.time_var}, {spec.event_var})")
    treat_col = opt("treat_col") or "A"

    dataset = load_csv(data_path, time_col=time_col, event_col=event_col,
                       treat_col=treat_col)
    prior = PriorConfig(model_kind=opt("model", str) or "independent",
                        sigma=opt("sigma", float) if opt("sigma") is not None else 3.0,
                        K=opt("partitions", int) if opt("partitions") is not None else 100)
    sampler_config = SamplerConfig(
        warmup=opt("warmup", int) if opt("warmup") is not None else 1000,
        post_iter=opt("iters", int) if opt("iters") is not None else 1000,
        chains=opt("chains", int) if opt("chains") is not None else 1,
        seed=opt("seed", int) if opt("seed") is not None else 0,
        leapfrog_steps=opt("leapfrog_steps", int) if opt("leapfrog_steps") is not None else 32,
        target_accept=opt("target_accept", float) if opt("target_accept") is not None else 0.8,
        init_jitter=opt("init_jitter", float) if opt("init_jitter") is not None else 1.0,
        threads=opt("threads", int) if opt("threads") is not None else 1)

    posterior = sample(dataset, spec, prior, sampler_config)

    out_dir = Path(opt("out_dir") or ".")
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

def build_parser() -> _Parser:
    parser = _Parser(prog="causalpch",
                     description="Bayesian piecewise-exponential hazard "
                                 "models with posterior g-computation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="sample the hazard-model posterior")
    fit.add_argument("--data", help="subject-level CSV file")
    fit.add_argument("--formula", help='e.g. "Surv(y, delta) ~ A + age"')
    fit.add_argument("--time-col", dest="time_col")
    fit.add_argument("--event-col", dest="event_col")
    fit.add_argument("--treat-col", dest="treat_col",
                     help="binary treatment column (default A)")
    fit.add_argument("--model", choices=["independent", "ar1"])
    fit.add_argument("--partitions", type=int, help="interval count K (default 100)")
    fit.add_argument("--sigma", type=float, help="prior SD for coefficients (default 3)")
    fit.add_argument("--warmup", type=int)
    fit.add_argument("--iters", type=int, help="retained draws per chain (default 1000)")
    fit.add_argument("--chains", type=int)
    fit.add_argument("--seed", type=int)
    fit.add_argument("--leapfrog-steps", dest="leapfrog_steps", type=int)
    fit.add_argument("--target-accept", dest="target_accept", type=float)
    fit.add_argument("--init-jitter", dest="init_jitter", type=float)
    fit.add_argument("--threads", type=int,
                     help="worker threads for chains (default 1: chains "
                          "run one after another)")
    fit.add_argument("--config", help="flat JSON config; flags override it")
    fit.add_argument("--out-dir", dest="out_dir")
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
