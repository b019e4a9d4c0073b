"""Bayesian piecewise-exponential hazard models with posterior g-computation.

Fits a proportional-hazards model with a piecewise-constant baseline over an
equally spaced partition, smoothing the log hazard levels across intervals
with an AR(1) (or independent) prior process, sampled by Hamiltonian Monte
Carlo. Posterior g-computation then turns hazard draws into draws of
marginal survival curves under each treatment arm and of their difference.
"""

__version__ = "0.1.0"

from .dataset import Dataset, load_csv, one_hot
from .diagnostics import PsrfReport, SummaryTable, psrf, summarize
from .errors import CausalPchError, DataError, FormulaError, NumericalError
from .formula import (DesignMatrix, FormulaSpec, Term, build_design,
                      format_formula, parse_formula)
from .freq_oracle import MleFit, pch_mle
from .gcomp import (GcompResult, apply_intervention, draw_bb_weights,
                    exact_marginal_survival, gcompute)
from .hazard_model import (HazardModel, ParameterLayout, ParameterState,
                           Partition, PersonTime, PriorConfig, cum_base_hazard,
                           expand_person_time, log_likelihood, log_prior,
                           make_partition, to_unconstrained)
from .sampler import (HazardPosterior, SamplerConfig, leapfrog, sample,
                      run_hmc_chain)

__all__ = [
    "__version__",
    "Dataset", "load_csv", "one_hot",
    "FormulaSpec", "Term", "DesignMatrix", "parse_formula", "format_formula",
    "build_design",
    "Partition", "PersonTime", "ParameterState", "PriorConfig",
    "ParameterLayout", "HazardModel",
    "make_partition", "expand_person_time", "log_likelihood", "log_prior",
    "to_unconstrained", "cum_base_hazard",
    "SamplerConfig", "HazardPosterior", "sample", "leapfrog", "run_hmc_chain",
    "GcompResult", "draw_bb_weights", "apply_intervention",
    "gcompute", "exact_marginal_survival",
    "SummaryTable", "PsrfReport", "summarize", "psrf",
    "MleFit", "pch_mle",
    "CausalPchError", "DataError", "FormulaError", "NumericalError",
]
