"""Reference figures quoted in bench/README.md, measured again.

    python3 bench/reference.py figures   # import, gradient, gcomp, CSV, threads
    python3 bench/reference.py ess       # seed-to-seed ESS of the veteran-ar1 fit
    python3 bench/reference.py coverage  # synthetic contrast over cohort seeds

Uses the same checkout, thread pinning and definitions as run.py and prints
markdown tables. Working files go to .bench_out/reference/.
"""

from __future__ import annotations

import run  # noqa: F401  (pins BLAS threads before numpy is imported)

import argparse
import shutil
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
from workloads import (LEAPFROG, TARGET_ACCEPT, VETERAN_FIT_SEED,  # noqa: E402
                       VETERAN_FORMULA, SyntheticLargeN, cli_main, coverage_z,
                       fit_argv, gcomp_argv, synthetic_fit_argv,
                       synthetic_gcomp_argv, write_csv)

WORK = run.OUT / "reference"
VETERAN = run.ROOT / "data" / "veteran.csv"


def must(argv: list[str]) -> None:
    rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"causalpch {argv[0]} exited {rc}")


def median_time(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def veteran_model():
    from causalpch import (HazardModel, PriorConfig, build_design,
                           expand_person_time, load_csv, make_partition,
                           parse_formula)
    design = build_design(load_csv(VETERAN), parse_formula(VETERAN_FORMULA))
    part = make_partition(float(design.y.max()), 100)
    return HazardModel(design, expand_person_time(design.y, part), part,
                       PriorConfig(model_kind="ar1", K=100, sigma=3.0))


def figures() -> None:
    from causalpch import (HazardModel, PriorConfig, SamplerConfig, gcompute,
                           load_csv, parse_formula, sample)
    from causalpch.cli import posterior_from_files, write_draws_csv
    from causalpch.dataset import Dataset
    rows = []

    code = ("import time; t0 = time.perf_counter(); import scipy.stats; "
            "t1 = time.perf_counter(); import causalpch; "
            "print(t1 - t0, time.perf_counter() - t0)")
    setup = [run.fresh_interpreter("import causalpch")[0] for _ in range(5)]
    split = [tuple(map(float, run.fresh_interpreter(code)[1].split()))
             for _ in range(5)]
    rows.append(("fresh interpreter + `import causalpch`",
                 f"{statistics.median(setup):.2f} s"))
    rows.append(("of which `import scipy.stats` / all imports",
                 f"{statistics.median(s[0] for s in split):.2f} s / "
                 f"{statistics.median(s[1] for s in split):.2f} s"))

    model = veteran_model()
    z = np.zeros(model.dim)
    z[:model.K] = -6.0
    per_call = median_time(lambda: [model.log_posterior_grad(z)
                                    for _ in range(200)]) / 200
    rows.append(("veteran gradient, alone (K=100, p=6, n=137)",
                 f"{1e6 * per_call:.0f} µs"))

    data = load_csv(VETERAN)
    spec = parse_formula(VETERAN_FORMULA)
    prior = PriorConfig(model_kind="ar1", K=100, sigma=3.0)
    walls = {}
    for threads in (None, 1):
        cfg = SamplerConfig(warmup=40, post_iter=40, chains=2,
                            seed=VETERAN_FIT_SEED, leapfrog_steps=LEAPFROG,
                            target_accept=TARGET_ACCEPT, threads=threads)
        walls[threads] = median_time(lambda: sample(data, spec, prior, cfg), 3)
    steps = 2 * 80 * LEAPFROG
    rows.append(("2 chains x 80 iterations at L=384, default threads / "
                 "`threads=1`", f"{walls[None]:.2f} s / {walls[1]:.2f} s"))
    rows.append(("per leapfrog step inside that fit, default threads",
                 f"{1e6 * walls[None] / steps:.0f} µs"))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    out = WORK / "grid"
    must(fit_argv(VETERAN, VETERAN_FORMULA, out, K=100, warmup=50, iters=1000,
                  seed=1, leapfrog=8))
    post = posterior_from_files(out / "draws.csv", out / "meta.json")
    write_s = median_time(lambda: write_draws_csv(post, WORK / "d.csv"), 3)
    read_s = median_time(lambda: posterior_from_files(out / "draws.csv",
                                                      out / "meta.json"), 3)
    rows.append((f"draws.csv of {post.draws.shape[0]} x "
                 f"{post.draws.shape[1] + 2}: write / read",
                 f"{write_s:.2f} s / {read_s:.2f} s"))
    post.draws, post.chain_ids = post.draws[:20], post.chain_ids[:20]
    g = median_time(lambda: gcompute(post, b=1000, seed=1), 3)
    rows.append(("veteran gcomp, B=1000, 100 midpoints", f"{50 * g:.1f} ms per draw"))

    cohort = oracle.synthetic_cohort(5000, 1)
    ds = Dataset(columns=cohort)
    spec5 = parse_formula(oracle.SYNTH_FORMULA)
    prior5 = PriorConfig(model_kind="ar1", K=20, sigma=3.0)
    post5 = sample(ds, spec5, prior5, SamplerConfig(warmup=20, post_iter=5,
                                                     chains=1, seed=1,
                                                     leapfrog_steps=8))
    from causalpch import expand_person_time
    model5 = HazardModel(post5.design,
                         expand_person_time(post5.design.y, post5.partition),
                         post5.partition, prior5)
    z5 = np.zeros(model5.dim)
    per_call5 = median_time(lambda: [model5.log_posterior_grad(z5)
                                     for _ in range(200)]) / 200
    rows.append(("synthetic gradient at n=5000, K=20", f"{1e6 * per_call5:.0f} µs"))
    g5 = median_time(lambda: gcompute(post5, b=200, seed=1,
                                      grid=np.array(oracle.SYNTH_TIMES)), 3)
    rows.append(("synthetic gcomp at n=5000, B=200, 3 times",
                 f"{1e3 * g5 / 5:.0f} ms per draw"))

    print("| Figure | Value |\n|---|---|")
    for name, value in rows:
        print(f"| {name} | {value} |")


def ess_table(seeds) -> None:
    """veteran-ar1's fit and gcomp with other fit seeds; min ESS per 200 draws."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    print("| fit seed | step sizes | min β ESS | min ate ESS | fit s |")
    print("|---|---|---|---|---|")
    for seed in seeds:
        out = WORK / f"seed{seed}"
        t0 = time.perf_counter()
        must(fit_argv(VETERAN, VETERAN_FORMULA, out, K=100, warmup=100,
                      iters=100, seed=seed, leapfrog=LEAPFROG))
        wall = time.perf_counter() - t0
        must(gcomp_argv(out, B=1000, seed=seed, times=(365, 730)))
        fit = oracle.Fit(out)
        _, ate = oracle.read_matrix(out / "ate.csv")
        steps = ", ".join(f"{s:.2g}" for s in fit.meta["step_sizes"])
        print(f"| {seed} | {steps} | {oracle.min_ess(fit.by_chain(fit.beta)):.1f} "
              f"| {oracle.min_ess(fit.by_chain(ate)):.1f} | {wall:.1f} |",
              flush=True)


def coverage(seeds) -> None:
    """synthetic-large-n's fit and gcomp on cohorts drawn with other seeds."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    print("| cohort and fit seed | fit exit | max abs z over t = "
          f"{', '.join(f'{t:g}' for t in oracle.SYNTH_TIMES)} |")
    print("|---|---|---|")
    for seed in seeds:
        out = WORK / f"seed{seed}"
        data = WORK / f"synthetic{seed}.csv"
        write_csv(data, oracle.synthetic_cohort(SyntheticLargeN.n, seed))
        rc = cli_main(synthetic_fit_argv(data, out, seed))
        z = "-"
        if rc == 0:
            must(synthetic_gcomp_argv(out, seed))
            z = f"{coverage_z(out)[2].max():.2f}"
        print(f"| {seed} | {rc} | {z} |", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("figures", "ess", "coverage"))
    args = parser.parse_args()
    if args.what == "figures":
        figures()
    elif args.what == "ess":
        ess_table([1, 2, 3, 4, VETERAN_FIT_SEED])
    else:
        coverage(range(1, 21))


if __name__ == "__main__":
    main()
