"""Every library argument with a band refuses NaN, and ±inf where its band
excludes them, with an InputError that names the argument."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import ridgelab
from ridgelab import Dataset, ExperimentConfig, InputError, Isotropic, ProblemConfig
from ridgelab import SignalVector, SpikedUniform, spiked_uniform
from ridgelab.dataio import parse_grid
from ridgelab.errors import UsageError
from ridgelab.fixedpoint import expected_dof, expected_err
from ridgelab.regress import confidence_intervals, debias, kfold_folds, kfold_select
from ridgelab.regress import sigma_hat_sq
from ridgelab.rng import stream
from ridgelab.riskengine import gaussian_abs_moment, lq_risk, opt_risks, optimal_eta
from ridgelab.simlab import distributional_check, sample_design, sample_noise, sample_signal
from ridgelab.simlab import seq_model_lq_mc, seq_model_sample
from ridgelab.spectrum import quad_form, trace_functional
from ridgelab.stats import z_two_sided


NAN, INF = math.nan, math.inf
MODEL = Isotropic(1.0, 4)
MU0 = SignalVector([1.0, 0.0, 0.0, 0.0])
DATA = Dataset(np.random.default_rng(0).standard_normal((6, 4)), np.ones(6), MODEL)
PROBLEM = dict(phi=0.5, eta=0.5, sigma_sq=1.0, model=MODEL, mu0=MU0)


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
    "expected_err gamma_sq": (lambda v: expected_err(MODEL, MU0, v, 1.0), "gamma_sq",
                              (NAN, INF, -INF, -1.0)),
    "expected_dof gamma_sq": (lambda v: expected_dof(MODEL, v, 1.0), "gamma_sq",
                              (NAN, INF, -INF, -1.0)),
    "ProblemConfig phi": (lambda v: ProblemConfig(**{**PROBLEM, "phi": v}), "'phi'",
                          (NAN, INF, -INF)),
    "ProblemConfig eta": (lambda v: ProblemConfig(**{**PROBLEM, "eta": v}), "'eta'",
                          (NAN, INF, -INF)),
    "ProblemConfig sigma_sq": (lambda v: ProblemConfig(**{**PROBLEM, "sigma_sq": v}),
                               "'sigma_sq'", (NAN, INF, -INF)),
    "ExperimentConfig sigma_sq": (lambda v: experiment(sigma_sq=v), "'sigma_sq'",
                                  (NAN, INF, -INF)),
    "Isotropic scale": (lambda v: Isotropic(v, 4), "'scale' of isotropic model",
                        (NAN, INF, -INF)),
    "SpikedUniform a": (lambda v: SpikedUniform(v, 1.0, 4), "'a' of spiked_uniform model",
                        (NAN, INF, -INF)),
    "SpikedUniform b": (lambda v: SpikedUniform(1.0, v, 4), "'b' of spiked_uniform model",
                        (NAN, INF, -INF)),
    "spiked_uniform a": (lambda v: spiked_uniform(v, 1.0, 4), "'a' of spiked_uniform model",
                         (NAN, INF, -INF)),
    "spiked_uniform b": (lambda v: spiked_uniform(1.0, v, 4), "'b' of spiked_uniform model",
                         (NAN, INF, -INF)),
    "opt_risks phi": (lambda v: opt_risks(v, 1.0, 1.0), "phi", (NAN, INF, -INF)),
    "opt_risks eta_star": (lambda v: opt_risks(0.5, v, 1.0), "eta_star", (NAN, INF, -INF)),
    "opt_risks tau_at_eta_star": (lambda v: opt_risks(0.5, 1.0, v), "tau_at_eta_star",
                                  (NAN, INF, -INF)),
    "sigma_hat_sq eta": (lambda v: sigma_hat_sq(DATA, v), "eta", (NAN, INF, -INF)),
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
    "seq_model_lq_mc tau": (
        lambda v: seq_model_lq_mc(2.0, None, MODEL, MU0, 1.0, v, 100, 0), "tau",
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


# exported result types: the library builds them, no caller passes their fields
RESULT_TYPES = {"ArgminResult", "CIReport", "DistCheckResult", "EffectiveParams", "RidgeFit",
                "RiskCurve", "RiskSummary", "TuningResult", "TuningSummary"}
# float arguments whose band a test outside BANDS holds: argument -> that test
BANDED_ELSEWHERE = {
    **{f"{name} eta": "test_regress::test_estimators_refuse_an_eta_out_of_band"
       for name in ("tau_hat", "gamma_hat", "df_hat", "ridge_fit", "ridgeless_fit")},
    # its error names it "gamma", as its row here does
    "confidence_intervals gamma_val": "test_bands::test_every_band_refuses_nan_naming_the_argument",
    # +inf is refused through the squared radius, under another name
    "ExperimentConfig signal_radius": "test_simlab::test_experiment_config_validation",
    "sample_signal radius": "test_simlab::test_sample_signal_radius_is_nonnegative",
}


def _arguments(*annotations) -> list[str]:
    """'<name> <argument>' for each argument of an exported callable annotated
    as one of annotations, result types and error types aside."""
    out = []
    for name in ridgelab.__all__:
        obj = getattr(ridgelab, name)
        if not callable(obj) or name in RESULT_TYPES or (
                isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        for arg, par in inspect.signature(obj).parameters.items():
            if par.annotation in annotations:
                out.append(f"{name} {arg}")
    return out


def _float_arguments() -> list[str]:
    """The float arguments, an eta that may also be a grid of them included."""
    return _arguments(float, "float", "float | np.ndarray")


def test_every_float_argument_has_a_band_test():
    arguments = _float_arguments()
    missing = [arg for arg in arguments if arg not in BANDS and arg not in BANDED_ELSEWHERE]
    assert not missing, f"float arguments with no band test: {missing}"
    assert set(BANDED_ELSEWHERE) <= set(arguments), "stale BANDED_ELSEWHERE entries"
    for test in set(BANDED_ELSEWHERE.values()):
        module, func = test.split("::")
        assert f"def {func}(" in (Path(__file__).parent / f"{module}.py").read_text(), test


@pytest.mark.parametrize("spec", ["0:1:0", "0:1:-3"])
def test_grid_count_band_is_a_usage_error(spec):
    with pytest.raises(UsageError, match=re.escape("grid count must lie in [1, inf)")):
        parse_grid(spec)


# count argument -> (a call that passes it value, the name the error gives it,
# the values refused: a bool, non-integral floats, and an integral float
# where the argument is no JSON field, whose cast takes 3.0 as 3)
COUNTS = {
    "ExperimentConfig m": (lambda v: experiment(m=v), "'m'", (True, 2.5)),
    "ExperimentConfig reps": (lambda v: experiment(reps=v), "'reps'", (True, 2.5)),
    "ExperimentConfig k": (lambda v: experiment(k=v), "'k'", (True, 2.5)),
    "ExperimentConfig master_seed": (lambda v: experiment(master_seed=v), "'seed'", (True, 2.5)),
    "ExperimentConfig threads": (lambda v: experiment(threads=v), "'threads'", (True, 2.5)),
    "Isotropic n": (lambda v: Isotropic(1.0, v), "'n' of isotropic model", (True, 2.5, 3.0)),
    "SpikedUniform n": (lambda v: SpikedUniform(1.0, 0.1, v), "'n' of spiked_uniform model",
                        (True, 2.5, 3.0)),
    "spiked_uniform n": (lambda v: spiked_uniform(1.0, 0.1, v), "'n' of spiked_uniform model",
                         (True, 2.5, 3.0)),
    "distributional_check seq_reps": (
        lambda v: distributional_check(experiment(n=16, reps=1), seq_reps=v), "seq_reps",
        (True, 2.5, 3.0)),
    "kfold_folds m": (lambda v: kfold_folds(v, 2, np.random.default_rng(0)), "m",
                      (True, 10.5, 10.0)),
    "kfold_folds k": (lambda v: kfold_folds(10, v, np.random.default_rng(0)), "k",
                      (True, 2.5, 3.0)),
    "kfold_select k": (lambda v: kfold_select(DATA, [0.5, 1.0], v, 0), "k", (True, 2.5, 3.0)),
    # 0 raised a raw ZeroDivisionError, -4 a math domain error
    "lq_risk n": (lambda v: lq_risk(2.0, np.ones(4), v), "n", (True, 2.5, 4.0, 0, -4)),
    "quad_form p": (lambda v: quad_form(MODEL, MU0, 1.0, v, 1), "p", (True, 1.5, 1.0, -1)),
    "quad_form q": (lambda v: quad_form(MODEL, MU0, 1.0, 1, v), "q", (True, 1.5, 1.0, -1)),
    "trace_functional p": (lambda v: trace_functional(MODEL, 0.5, v, 1), "p",
                           (True, 1.5, 1.0, -1)),
    "trace_functional q": (lambda v: trace_functional(MODEL, 0.5, 1, v), "q",
                           (True, 2.5, 1.0, -1)),
    # m = 0 returned an empty array, m = -1 raised a raw ValueError
    "sample_design m": (lambda v: sample_design("gaussian", v, 4, MODEL, 0), "m",
                        (True, 2.5, 3.0, 0, -1)),
    "sample_design n": (lambda v: sample_design("gaussian", 3, v, MODEL, 0), "n",
                        (True, 4.5, 4.0)),
    "sample_noise m": (lambda v: sample_noise("gaussian", v, 1.0, 0), "m",
                       (True, 2.5, 3.0, 0, -1)),
    "sample_signal n": (lambda v: sample_signal("sphere", v, 0), "dimension", (True, 2.5, 3.0)),
    "seq_model_lq_mc reps": (
        lambda v: seq_model_lq_mc(2.0, None, MODEL, MU0, 1.0, 1.0, v, 0), "reps",
        (True, 150.5, 150.0)),
    "seq_model_lq_mc seed": (
        lambda v: seq_model_lq_mc(2.0, None, MODEL, MU0, 1.0, 1.0, 100, v), "seed",
        (True, 2.5, 3.0, -1)),
    "stream master_seed": (lambda v: stream(v, 0, "seq"), "master_seed", (True, 2.5, 3.0, -1)),
    "stream rep": (lambda v: stream(0, v, "seq"), "rep", (True, 1.5, 1.0, -1)),
    "stream ctx": (lambda v: stream(0, 0, "seq", v), "ctx", (True, 1.5, 1.0, -1)),
}


@pytest.mark.parametrize(
    "argument, value",
    [(argument, value) for argument, (_, _, values) in COUNTS.items() for value in values],
)
def test_every_count_refuses_a_non_integer_naming_the_argument(argument, value):
    call, name, _ = COUNTS[argument]
    with pytest.raises(InputError, match=re.escape(name)):
        call(value)


def test_counts_accept_an_int_and_a_numpy_integer():
    assert lq_risk(2.0, np.ones(4), np.int64(4)) == lq_risk(2.0, np.ones(4), 4)
    assert Isotropic(1.0, np.int32(4)).n == 4
    assert len(kfold_folds(np.int64(10), np.int64(3), np.random.default_rng(0))) == 3
    assert sample_noise("gaussian", 3, 1.0, 0).shape == (3,)
    assert stream(np.uint64(2**63), 0, "seq").random() == stream(2**63, 0, "seq").random()


def test_every_int_argument_has_a_count_test():
    missing = [arg for arg in _arguments(int, "int") if arg not in COUNTS]
    assert not missing, f"int arguments with no count test: {missing}"
    assert set(COUNTS) <= set(_arguments(int, "int")), "stale COUNTS entries"
