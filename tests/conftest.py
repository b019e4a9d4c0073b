import os
import subprocess
import sys

import numpy as np
import pytest

import causalpch
from causalpch import load_csv, make_partition, expand_person_time, build_design
from causalpch.formula import DesignMatrix, Term, parse_formula

from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
VETERAN_CSV = DATA_DIR / "veteran.csv"

ADJUSTED_FORMULA = ("Surv(y, delta) ~ A + age + karno + celltypesquamous"
                    " + celltypesmallcell + celltypeadeno")
UNADJUSTED_FORMULA = "Surv(y, delta) ~ A"


@pytest.fixture(scope="session")
def veteran():
    return load_csv(VETERAN_CSV)


@pytest.fixture(scope="session")
def veteran_design(veteran):
    return build_design(veteran, parse_formula(ADJUSTED_FORMULA))


def run_fresh_python(code: str) -> subprocess.CompletedProcess:
    """``python -c code`` in a new interpreter that imports this causalpch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(causalpch.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def random_survival_data(rng, n=40, p=2, max_time=10.0):
    """Small synthetic right-censored dataset for likelihood/MLE tests."""
    X = rng.standard_normal((n, p))
    t = rng.exponential(scale=max_time / 3.0, size=n)
    c = rng.exponential(scale=max_time / 2.0, size=n)
    y = np.minimum(np.minimum(t, c), max_time * 0.999)
    y = np.maximum(y, 1e-3)
    delta = (t <= c).astype(float)
    if delta.sum() == 0:
        delta[0] = 1.0
    return X, y, delta


def log_likelihood(lik, theta, beta) -> float:
    """The Poisson log-likelihood at one point: ``value_and_grad`` on a
    one-row block, where an overflowing rate gives -inf or NaN unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return lik.value_and_grad(theta[None], beta[None])[0][0]


class Target:
    """A sampler target built from one ``z -> (log density, gradient)``.

    A (C, dim) block is evaluated row by row, as the sampler's lockstep
    chains require; a 1-D point is passed through.
    """

    def __init__(self, value_grad, dim):
        self.value_grad = value_grad
        self.dim = dim

    def log_posterior_grad(self, z):
        if z.ndim == 1:
            return self.value_grad(z)
        rows = [self.value_grad(row) for row in z]
        return np.array([v for v, _ in rows]), np.array([g for _, g in rows])

    def grad(self, z):
        return self.log_posterior_grad(z)[1]


def design_of(X, y, delta):
    """A DesignMatrix over the columns of X, named x1..xp."""
    names = tuple(f"x{j + 1}" for j in range(np.shape(X)[1]))
    return DesignMatrix(X=np.asarray(X, dtype=float), columns=names,
                        terms=tuple(Term((name,)) for name in names),
                        y=np.asarray(y, dtype=float),
                        delta=np.asarray(delta, dtype=float))


def person_time_for(y, K):
    part = make_partition(float(np.max(y)), K)
    return part, expand_person_time(y, part)


def integrated_autocorr_time(x, max_lag=2000):
    """Initial-positive-sequence estimate of the autocorrelation time."""
    x = np.asarray(x, dtype=float)
    xc = x - x.mean()
    n = len(x)
    acf = np.correlate(xc, xc, "full")[n - 1:] / (xc @ xc)
    tau = 1.0
    for k in range(1, min(n // 3, max_lag)):
        if acf[k] <= 0.0:
            break
        tau += 2.0 * acf[k]
    return tau
