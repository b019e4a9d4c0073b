"""causalpch benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload veteran-ar1 --seed 1 --seconds 15 --trace 0

It benchmarks the checkout that holds this file: the package is imported
from its ``src/`` and the VA data from ``data/veteran.csv``; working files
go to ``.bench_out/<workload>/``. With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer ones. The last line of
standard output is the result object; see README.md for every metric.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools get one thread each, so that the chain threads plus pool
# threads never outnumber the cores. Set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, BenchError, cli_main  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: fresh interpreters started per run for setup_s (median reported)
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
GRAD_PROBE_DRAWS = 20
GRAD_PROBE_CALLS = 25
GRAD = "hazard_model.log_posterior_grad"
COUNTER_PROBE_CALLS = 20000
COUNTER_PROBE_REPEATS = 5


def fresh_interpreter(code: str) -> tuple[float, str]:
    """Wall time and stdout of ``python -c code`` with the checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"fresh interpreter failed: {proc.stderr.strip()}")
    return wall, proc.stdout


def environment() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_steps(wl, out: Path) -> dict[str, float]:
    """One round's timed CLI steps; wall seconds per step."""
    out.mkdir(parents=True)
    seconds = {}
    for name, argv in wl.steps(out):
        t0 = time.perf_counter()
        rc = cli_main(argv)
        seconds[name] = time.perf_counter() - t0
        if rc != 0:
            raise BenchError(f"{wl.name}: causalpch {name} exited {rc}")
    return seconds


def judge(wl, outs: list[Path], untimed_failed: int) -> tuple[bool, int, int]:
    """Check every round's outputs; return (correct, attempted, failed)."""
    problems, notes, attempted, failed = [], [], 0, untimed_failed
    for out in outs:
        p, f, n = wl.check(out)
        problems += [f"{out.name}: {x}" for x in p]
        notes += [f"{out.name}: {x}" for x in n]
        attempted += wl.ops_per_round(out)
        failed += f
    if untimed_failed:
        notes.append(f"{untimed_failed} round(s): fit and gcomp on all-A=1 "
                     "data did not exit 2")
    for line in notes:
        print(f"note: {line}")
    for line in problems:
        print(f"CHECK FAILED: {line}")
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    return not problems, attempted, failed


def timed_run(wl, seconds: int) -> dict:
    setup = [fresh_interpreter("import causalpch")[0]
             for _ in range(SETUP_REPEATS)]
    rounds, outs, untimed_failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        out = wl.work / f"round{len(rounds) + 1}"
        steps = run_steps(wl, out)
        untimed_failed += wl.untimed(out)
        rounds.append(steps)
        outs.append(out)
        print(f"{out.name}: " + ", ".join(f"{k} {v:.3f} s" for k, v in steps.items()))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, attempted, failed = judge(wl, outs, untimed_failed)
    med = statistics.median
    metrics = {
        "setup_s": (med(setup), "s"),
        "fit_s": (med(r["fit"] for r in rounds), "s"),
        "gcomp_s": (med(r["gcomp"] for r in rounds), "s"),
        "analysis_s": (med(sum(r.values()) for r in rounds), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return result(correct, attempted, failed, metrics)


def result(correct, attempted, failed, metrics) -> dict:
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()}}


# ------------------------------------------------------------------ traced

def install(tracer) -> None:
    """Wrap the public functions each layer is entered through."""
    import causalpch.cli as cli
    import causalpch.sampler as sampler
    for owner, attr, name in (
            (cli, "load_csv", "dataset.load_csv"),
            (sampler, "build_design", "formula.build_design"),
            (cli, "sample", "sampler.sample"),
            (sampler, "run_hmc_chain", "sampler.run_hmc_chain"),
            (sampler.DualAveraging, "adapted_step", "sampler.adapted_step"),
            (cli, "write_draws_csv", "cli.write_draws_csv"),
            (cli, "write_meta_json", "cli.write_meta_json"),
            (cli, "posterior_from_files", "cli.posterior_from_files"),
            (cli, "gcompute", "gcomp.gcompute"),
            (cli, "write_matrix_csv", "cli.write_matrix_csv"),
            (cli, "summarize", "diagnostics.summarize"),
            (cli, "psrf", "diagnostics.psrf"),
            (cli, "pch_mle", "freq_oracle.pch_mle")):
        tracer.span_calls(owner, attr, name)


def counter_cost_s() -> float:
    """Thread CPU the gradient counter adds per call outside the part it times.

    A no-op method is called through the counter; its cost, less that of an
    empty loop and of the part the counter times, is what each counted
    gradient call adds to the sampler's own CPU time.
    """
    class Probe:
        def noop(self):
            return None

    probe, costs, calls = Probe(), [], COUNTER_PROBE_CALLS
    for _ in range(COUNTER_PROBE_REPEATS):
        counter = Tracer()
        counter.count_calls(Probe, "noop", "noop")
        t0 = time.thread_time()
        for _ in range(calls):
            probe.noop()
        wrapped = time.thread_time() - t0
        counter.restore()
        t0 = time.thread_time()
        for _ in range(calls):
            pass
        loop = time.thread_time() - t0
        costs.append((wrapped - loop - counter.calls("noop")[1]) / calls)
    return statistics.median(costs)


def counted_fit(wl, traced_out: Path) -> tuple[int, float, float]:
    """(gradient calls, their thread CPU s, sampler self CPU s) of one fit.

    The fit seed is fixed, so this fit repeats the traced round's fit call
    for call. The gradient is counted here and not in the traced round,
    because its wrapper runs on each of some 10^5 calls. The sampler's self
    CPU is the process CPU of ``sample`` less the gradient's and less the
    wrapper's cost per call (``counter_cost_s``) times the calls.
    """
    import causalpch.cli as cli
    import causalpch.hazard_model as hazard_model
    out = wl.work / "counted"
    out.mkdir(parents=True)
    counter = Tracer()
    counter.span_calls(cli, "sample", "sampler.sample")
    counter.count_calls(hazard_model.HazardModel, "log_posterior_grad", GRAD)
    try:
        rc = cli_main(dict(wl.steps(out))["fit"])
    finally:
        counter.restore()
    if rc != 0:
        raise BenchError(f"{wl.name}: counted causalpch fit exited {rc}")
    if (out / "draws.csv").read_bytes() != (traced_out / "draws.csv").read_bytes():
        raise BenchError(f"{wl.name}: the counted fit drew other draws than "
                         "the traced one, so its counts do not describe it")
    calls, grad_cpu = counter.calls(GRAD)
    cost = counter_cost_s()
    print(f"gradient counter: {calls} calls, {1e6 * cost:.2f} us of CPU each")
    return calls, grad_cpu, counter.cpu("sampler.sample") - grad_cpu - calls * cost


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - t0, value


def grad_probe_us(post) -> float:
    """Median µs per log_posterior_grad call at retained draws of the fit."""
    from causalpch import (HazardModel, ParameterState, PriorConfig,
                           expand_person_time, to_unconstrained)
    cfg = PriorConfig(model_kind=post.model_kind, sigma=post.sigma, K=post.K)
    model = HazardModel(post.design,
                        expand_person_time(post.design.y, post.partition),
                        post.partition, cfg)
    K, p = post.K, post.p
    rows = np.linspace(0, len(post.draws) - 1, GRAD_PROBE_DRAWS).astype(int)
    per_call = []
    for row in post.draws[rows]:
        state = ParameterState(theta_tilde=row[:K], beta=row[K:K + p],
                               eta=float(row[K + p]),
                               rho=float(row[K + p + 1]) if cfg.has_rho else 0.0,
                               nu=row[-K:])
        z = to_unconstrained(state, cfg)
        model.log_posterior_grad(z)
        t0 = time.perf_counter()
        for _ in range(GRAD_PROBE_CALLS):
            model.log_posterior_grad(z)
        per_call.append((time.perf_counter() - t0) / GRAD_PROBE_CALLS)
    return 1e6 * statistics.median(per_call)


def layer_metrics(tracer, out: Path, bytes_written: int,
                  counted: tuple[int, float, float]) -> dict:
    from causalpch import (exact_marginal_survival, expand_person_time,
                           pch_mle, psrf)
    from causalpch.cli import posterior_from_files

    post = posterior_from_files(out / "draws.csv", out / "meta.json")
    fit = oracle.Fit(out)
    M = len(post.draws)
    m = {}

    grad_calls, grad_cpu, sampler_self = counted
    sample_wall = tracer.total("sampler.sample")
    sample_cpu = tracer.cpu("sampler.sample")
    warmup, sampling = [], []
    chains = [i for i, s in enumerate(tracer.spans)
              if s[0] == "sampler.run_hmc_chain"]
    for i in chains:
        chain = tracer.spans[i]
        adapted = next(s for s in tracer.spans
                       if s[0] == "sampler.adapted_step" and s[3] == i)
        warmup.append(adapted[1] - chain[1])
        sampling.append(chain[2] - adapted[2])
    m["dataset.load_csv_s"] = (tracer.self_time("dataset.load_csv"), "s")
    m["formula.build_design_s"] = (tracer.self_time("formula.build_design"), "s")
    m["hazard_model.grad_us"] = (grad_probe_us(post), "us")
    m["hazard_model.grad_calls"] = (grad_calls, "count")
    m["hazard_model.grad_total_s"] = (grad_cpu, "s")
    m["sampler.self_s"] = (sampler_self, "s")
    m["sampler.step_us"] = (1e6 * sample_cpu / grad_calls, "us")
    m["sampler.warmup_s"] = (max(warmup), "s")
    m["sampler.sampling_s"] = (max(sampling), "s")
    m["sampler.cpu_per_wall"] = (sample_cpu / sample_wall, "ratio")
    meta = fit.meta
    m["sampler.accept_rate"] = (statistics.mean(meta["accept_rate"]), "ratio")
    m["sampler.divergences"] = (sum(meta["divergences"]), "count")
    m["sampler.min_step_size"] = (min(meta["step_sizes"]), "step")
    _, ate = oracle.read_matrix(out / "ate.csv")
    ess_beta = oracle.min_ess(fit.by_chain(fit.beta))
    ess_ate = oracle.min_ess(fit.by_chain(ate))
    m["sampler.min_ess_beta"] = (ess_beta, "draws")
    m["sampler.min_ess_beta_per_s"] = (ess_beta / sample_wall, "draws/s")
    m["sampler.min_ess_ate"] = (ess_ate, "draws")
    m["sampler.min_ess_ate_per_s"] = (ess_ate / sample_wall, "draws/s")

    gres = tracer.results["gcomp.gcompute"]
    g_wall = tracer.self_time("gcomp.gcompute")
    m["gcomp.per_draw_ms"] = (1e3 * g_wall / M, "ms")
    m["gcomp.sims_per_s"] = (2.0 * post.design.n * gres.B * M / g_wall, "1/s")
    exact_s, _ = timed(exact_marginal_survival, post, 0, gres.times)
    m["gcomp.exact_per_draw_ms"] = (1e3 * exact_s / M, "ms")
    _, worst = oracle.check_gcomp(fit, out)
    m["gcomp.mc_max_abs_err"] = (worst, "prob")

    # layers the workload's analysis does not call are timed directly
    m["diagnostics.summarize_s"] = (tracer.self_time("diagnostics.summarize"), "s")
    psrf_s = (tracer.self_time("diagnostics.psrf") if tracer.named("diagnostics.psrf")
              else timed(psrf, post.chains())[0])
    m["diagnostics.psrf_s"] = (psrf_s, "s")
    if tracer.named("freq_oracle.pch_mle"):
        mle_s = tracer.self_time("freq_oracle.pch_mle")
        mle = tracer.results["freq_oracle.pch_mle"]
    else:
        person_time = expand_person_time(post.design.y, post.partition)
        mle_s, mle = timed(pch_mle, post.design, person_time)
    m["freq_oracle.pch_mle_s"] = (mle_s, "s")
    m["freq_oracle.iterations"] = (mle.iterations, "count")

    m["cli.write_draws_s"] = (tracer.self_time("cli.write_draws_csv"), "s")
    m["cli.read_posterior_s"] = (tracer.self_time("cli.posterior_from_files"), "s")
    m["cli.write_curves_s"] = (tracer.self_time("cli.write_matrix_csv"), "s")
    m["cli.bytes_written"] = (bytes_written, "bytes")
    m["src.lines"] = (sum(len(f.read_text(encoding="utf-8").splitlines())
                          for f in SRC.rglob("*.py")), "lines")
    return m


def traced_run(wl) -> dict:
    code = ("import time; t0 = time.perf_counter(); import causalpch; "
            "print(time.perf_counter() - t0)")
    import_s = statistics.median(float(fresh_interpreter(code)[1])
                                 for _ in range(IMPORT_REPEATS))
    plain_out, traced_out = wl.work / "untraced", wl.work / "traced"
    plain = sum(run_steps(wl, plain_out).values())
    untimed_failed = wl.untimed(plain_out)
    tracer = Tracer()
    install(tracer)
    try:
        traced = sum(run_steps(wl, traced_out).values())
    finally:
        tracer.restore()
    bytes_written = sum(f.stat().st_size for f in traced_out.rglob("*")
                        if f.is_file())
    tracer.dump(wl.work / "spans.json")
    counted = counted_fit(wl, traced_out)
    for name in dict.fromkeys(s[0] for s in tracer.spans):
        print(f"self time: {name} {tracer.self_time(name):.6f} s")
    untimed_failed += wl.untimed(traced_out)
    print(f"analysis: untraced {plain:.3f} s, traced {traced:.3f} s")
    correct, attempted, failed = judge(wl, [plain_out, traced_out],
                                       untimed_failed)
    metrics = {"causalpch.import_s": (import_s, "s")}
    metrics.update(layer_metrics(tracer, traced_out, bytes_written, counted))
    metrics["trace.overhead_s"] = (traced - plain, "s")
    return result(correct, attempted, failed, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15,
                        help="start rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "causalpch"
    if not (package / "__init__.py").is_file() or not (ROOT / "data" / "veteran.csv").is_file():
        print(f"bench: {ROOT} is not a causalpch checkout (needs src/causalpch "
              "and data/veteran.csv)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import causalpch
    if Path(causalpch.__file__).resolve().parent != package.resolve():
        print(f"bench: imported causalpch from {causalpch.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](ROOT, work, args.seed)
    wl.make_inputs()
    print("env: " + json.dumps(environment()))
    try:
        res = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
