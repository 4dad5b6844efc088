"""Every library argument with a band refuses NaN, and ±inf where its band
excludes them, with an InputError that names the argument."""

import math
import re

import numpy as np
import pytest

from ridgelab import Dataset, ExperimentConfig, InputError, Isotropic, SignalVector, SpikedUniform
from ridgelab.dataio import parse_grid
from ridgelab.errors import UsageError
from ridgelab.fixedpoint import expected_dof, expected_err, stieltjes_at
from ridgelab.regress import confidence_intervals, debias, kfold_select, sigma_hat_sq
from ridgelab.riskengine import gaussian_abs_moment, lq_risk, opt_risks, optimal_eta
from ridgelab.simlab import sample_noise, sample_signal, seq_model_lq_mc, seq_model_sample
from ridgelab.spectrum import quad_form, trace_functional
from ridgelab.stats import z_two_sided


NAN, INF = math.nan, math.inf
MODEL = Isotropic(1.0, 4)
MU0 = SignalVector([1.0, 0.0, 0.0, 0.0])
DATA = Dataset(np.random.default_rng(0).standard_normal((6, 4)), np.ones(6), MODEL)


def experiment(**fields):
    base = dict(m=8, n=16, model_spec={"kind": "isotropic", "scale": 1.0}, etas=(0.5, 1.0))
    return ExperimentConfig(**{**base, **fields})


# argument -> (a call that passes it value, the name the error gives it, the
# values refused: NaN, and +-inf where the band excludes them)
BANDS = {
    "ExperimentConfig alpha": (lambda v: experiment(alpha=v), "'alpha'", (NAN, INF, -INF)),
    "confidence_intervals alpha": (
        lambda v: confidence_intervals(np.zeros(4), 1.0, MODEL, v), "alpha", (NAN, INF, -INF)),
    "z_two_sided alpha": (z_two_sided, "alpha", (NAN, INF, -INF)),
    "gaussian_abs_moment q": (gaussian_abs_moment, "q", (NAN, INF, -INF)),
    "lq_risk q": (lambda v: lq_risk(v, np.ones(4), 4), "q", (NAN, INF, -INF)),
    "seq_model_lq_mc q": (
        lambda v: seq_model_lq_mc(v, None, MODEL, MU0, 1.0, 1.0, 100, 0), "q", (NAN, INF, -INF)),
    "seq_model_lq_mc reps": (
        lambda v: seq_model_lq_mc(2.0, None, MODEL, MU0, 1.0, 1.0, v, 0), "reps",
        (NAN, INF, -INF)),
    "expected_err tau": (lambda v: expected_err(MODEL, MU0, 1.0, v), "tau", (NAN, INF, -INF)),
    "expected_dof tau": (lambda v: expected_dof(MODEL, 1.0, v), "tau", (NAN, INF, -INF)),
    "stieltjes_at tau_star": (lambda v: stieltjes_at(0.5, v, 1.0, 0.0), "tau_star",
                              (NAN, INF, -INF)),
    "stieltjes_at phi": (lambda v: stieltjes_at(v, 1.0, 1.0, 1.0), "phi", (NAN, INF, -INF)),
    "opt_risks phi": (lambda v: opt_risks(v, 1.0, 1.0), "phi", (NAN, INF, -INF)),
    "opt_risks eta_star": (lambda v: opt_risks(0.5, v, 1.0), "eta_star", (NAN, INF, -INF)),
    "opt_risks tau_at_eta_star": (lambda v: opt_risks(0.5, 1.0, v), "tau_at_eta_star",
                                  (NAN, INF, -INF)),
    "sigma_hat_sq gamma": (lambda v: sigma_hat_sq(v, 1.0, 0.5, 0.5, np.ones(4), MODEL),
                           "gamma", (NAN, INF, -INF)),
    "sigma_hat_sq tau": (lambda v: sigma_hat_sq(1.0, v, 0.5, 0.5, np.ones(4), MODEL), "tau",
                         (NAN, INF, -INF)),
    "sigma_hat_sq phi": (lambda v: sigma_hat_sq(1.0, 1.0, 0.5, v, np.ones(4), MODEL), "phi",
                         (NAN, INF, -INF)),
    "confidence_intervals gamma": (
        lambda v: confidence_intervals(np.zeros(4), v, MODEL, 0.05), "gamma", (NAN, INF, -INF)),
    "seq_model_sample gamma": (lambda v: seq_model_sample(MODEL, MU0, v, 1.0, 0), "gamma",
                               (NAN, INF, -INF)),
    "seq_model_lq_mc gamma": (
        lambda v: seq_model_lq_mc(2.0, None, MODEL, MU0, v, 1.0, 100, 0), "gamma",
        (NAN, INF, -INF)),
    "debias tau": (lambda v: debias(np.ones(4), v, MODEL), "tau", (NAN, INF, -INF)),
    "seq_model_sample tau": (lambda v: seq_model_sample(MODEL, MU0, 1.0, v, 0), "tau",
                             (NAN, INF, -INF)),
    "trace_functional tau": (lambda v: trace_functional(MODEL, v, 1, 1), "tau", (NAN, INF, -INF)),
    "quad_form tau": (lambda v: quad_form(MODEL, MU0, v, 1, 1), "tau", (NAN, INF, -INF)),
    "ExperimentConfig m": (lambda v: experiment(m=v), "'m'", (NAN, INF, -INF)),
    "ExperimentConfig reps": (lambda v: experiment(reps=v), "'reps'", (NAN, INF, -INF)),
    "ExperimentConfig argmin_reps": (
        lambda v: experiment(argmin_reps=v), "'argmin_reps'", (NAN, INF, -INF)),
    "ExperimentConfig k": (lambda v: experiment(k=v), "'k'", (NAN, INF, -INF)),
    "kfold_select k": (lambda v: kfold_select(DATA, [0.5, 1.0], v, 0), "k",
                       (NAN, INF, -INF, 2.5)),
    "sample_signal n": (lambda v: sample_signal("sphere", v, 0), "dimension", (NAN, INF, -INF)),
    "Isotropic n": (lambda v: Isotropic(1.0, v), "'n' of isotropic model", (NAN, INF, -INF)),
    "SpikedUniform n": (lambda v: SpikedUniform(1.0, 1.0, v), "'n' of spiked_uniform model",
                        (NAN, INF, -INF)),
    # bands with no upper end: +inf stays accepted
    "optimal_eta sigma_sq": (lambda v: optimal_eta(v, 1.0), "sigma_sq", (NAN, -INF)),
    "optimal_eta mu_norm_sq": (lambda v: optimal_eta(1.0, v), "mu_norm_sq", (NAN, -INF)),
    "sample_noise sigma_sq": (lambda v: sample_noise("gaussian", 4, v, 0), "sigma_sq",
                              (NAN, -INF)),
    "lq_risk diag_gamma": (lambda v: lq_risk(2.0, np.array([1.0, v]), 2), "diag(Gamma)",
                           (NAN, -INF)),
}


@pytest.mark.parametrize(
    "argument, value",
    [(argument, value) for argument, (_, _, values) in BANDS.items() for value in values],
)
def test_every_band_refuses_nan_naming_the_argument(argument, value):
    call, name, _ = BANDS[argument]
    with pytest.raises(InputError, match=re.escape(name)):
        call(value)


def test_band_edges_stay_accepted():
    # the values at and inside each band's ends that were accepted before
    # the bands moved into errors.py
    assert trace_functional(MODEL, 0.0, 1, 1) == 1.0 and quad_form(MODEL, MU0, 0.0, 1, 1) == 1.0
    assert math.isfinite(z_two_sided(1e-10)) and math.isfinite(gaussian_abs_moment(1e-300))
    assert optimal_eta(INF, 1.0) == INF and opt_risks(0.5, 1e300, 2e300)[0] == 0.0
    assert seq_model_lq_mc(2.0, None, MODEL, MU0, 1.0, 1.0, 100, 0)[1] > 0.0
    assert experiment(k=2, reps=1, argmin_reps=1, m=1).k == 2
    assert Isotropic(1.0, 10**12).n == 10**12


@pytest.mark.parametrize("spec", ["0:1:0", "0:1:-3"])
def test_grid_count_band_is_a_usage_error(spec):
    with pytest.raises(UsageError, match=re.escape("grid count must lie in [1, inf)")):
        parse_grid(spec)
