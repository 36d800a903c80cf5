"""Adversarial instance weighting for regression domain adaptation.

A weighting network learns per-instance source weights jointly with
the task hypothesis and an adversary bounding the worst-case gap
between target risk and reweighted source risk, trained end to end by
stochastic gradient descent-ascent. Instance-based baselines (KMM,
KLIEP, boosting for regression transfer, uniform and target-only
fits), synthetic covariate-shift generators and a reproducible
benchmark harness round out the package.
"""

from .baselines import (KliepConfig, KmmConfig, TradaboostConfig,
                        kliep_weights, kmm_weights, target_only_fit,
                        tradaboost_r2_fit, uniform_fit)
from .data import (CsvSchema, MixtureShiftSpec, gen_mixture_shift,
                   gen_uniform_shift_1d, load_csv, save_csv)
from .discrepancy import estimate_y_discrepancy
from .harness import ExperimentConfig, MethodSpec, run_experiment, run_method
from .nn import ArchSpec, FitConfig
from .training import (WannConfig, build_wann_model, fit_wann,
                       pretrain_weighter, predict, training_weights)

__version__ = "0.1.0"

# exactly the names README.md's examples import; everything else is
# imported from its submodule
__all__ = [
    "ArchSpec", "CsvSchema", "ExperimentConfig", "FitConfig", "KliepConfig",
    "KmmConfig", "MethodSpec", "MixtureShiftSpec", "TradaboostConfig",
    "WannConfig", "build_wann_model", "estimate_y_discrepancy", "fit_wann",
    "gen_mixture_shift", "gen_uniform_shift_1d", "kliep_weights",
    "kmm_weights", "load_csv", "predict", "pretrain_weighter",
    "run_experiment", "run_method", "save_csv", "target_only_fit",
    "tradaboost_r2_fit", "training_weights", "uniform_fit",
]
