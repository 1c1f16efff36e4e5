import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from clusterbal import simulate
from clusterbal.core import ClusterSample, probit_mean_probs
from clusterbal.errors import InvalidSpec
from clusterbal.estimators import exposure_collapsed_ipw
from clusterbal.simulate import (
    _TRUTH_BLOCK,
    DGPConfig,
    _expected_signal_from_x,
    calibrate_snr,
    conditional_true_mu,
    dgp_h,
    dgp_structure,
    gen_dataset,
    monte_carlo,
    preset_config,
    resolve_gamma,
    sweep,
    true_mu,
)
from clusterbal.structures import NeighborPattern

from oracles import design_rows

SMALL = dict(n=8, snr_target=0.2, kappa=0.2, seed=11, gamma=0.15)


def small_cfg(**over):
    return DGPConfig(**{**SMALL, **over})


def test_config_validation():
    with pytest.raises(InvalidSpec):
        DGPConfig(n=0)
    with pytest.raises(InvalidSpec):
        DGPConfig(n=5, rho=1.0)
    with pytest.raises(InvalidSpec):
        DGPConfig(n=5, sigma2=0.0)
    with pytest.raises(InvalidSpec):
        DGPConfig(n=5, cluster_sizes=((10, 0.5), (15, 0.6)))
    with pytest.raises(InvalidSpec):
        DGPConfig(n=5, interference="ring")
    # each field is checked as a config spec field, from Python as from --config
    bad = [
        ({"n": 2.7}, "n"), ({"n": "abc"}, "n"), ({"p": 4.5}, "p"), ({"seed": 1.5}, "seed"),
        ({"kappa": math.nan}, "kappa"), ({"gamma": math.nan}, "gamma"),
        ({"gamma": math.inf}, "gamma"), ({"sigma2": math.nan}, "sigma2"),
        ({"snr_target": math.inf}, "snr_target"), ({"rho": "x"}, "rho"),
        ({"interference": 5}, "interference"),
        ({"cluster_sizes": ((10.5, 1.0),)}, "cluster_sizes"),
        ({"cluster_sizes": ((True, 1.0),)}, "cluster_sizes"),
        ({"cluster_sizes": ((10, math.nan),)}, "cluster_sizes"),
        ({"cluster_sizes": ((10,),)}, "cluster_sizes"), ({"cluster_sizes": 5}, "cluster_sizes"),
    ]
    for over, field in bad:
        with pytest.raises(InvalidSpec, match=f"config spec field '{field}'"):
            DGPConfig(**{"n": 5, **over})


def test_config_stores_the_checked_values():
    cfg = DGPConfig(n=5.0, kappa=1, seed=np.int64(3), cluster_sizes=[[10.0, 1]])
    assert (cfg.n, cfg.kappa, cfg.seed, cfg.cluster_sizes) == (5, 1.0, 3, ((10, 1.0),))
    assert [type(v) for v in (cfg.n, cfg.kappa, cfg.seed)] == [int, float, int]
    assert cfg == DGPConfig(n=5, kappa=1.0, seed=3, cluster_sizes=((10, 1.0),))


@pytest.mark.parametrize("level", [1.5, 0.0, float("nan")])
def test_monte_carlo_refuses_a_level_outside_the_unit_interval_before_any_work(
    monkeypatch, level
):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the level was checked")

    monkeypatch.setattr(simulate, "true_mu", forbidden)
    monkeypatch.setattr(simulate, "resolve_gamma", forbidden)
    with pytest.raises(InvalidSpec, match=r"level must lie in \(0, 1\)"):
        monte_carlo(small_cfg(), 2, level=level)


@pytest.mark.parametrize(
    "kwargs, name",
    [({"workers": 0}, "workers"), ({"workers": -2, "parallel": True}, "workers"),
     ({"truth_draws": 0}, "truth_draws"), ({"truth_draws": -5}, "truth_draws"),
     ({"reps": 0}, "reps")],
)
def test_monte_carlo_refuses_fewer_than_one_worker_draw_or_replicate_before_any_work(
    monkeypatch, kwargs, name
):
    def forbidden(*args, **kw):
        raise AssertionError("ran before the counts were checked")

    monkeypatch.setattr(simulate, "true_mu", forbidden)
    monkeypatch.setattr(simulate, "resolve_gamma", forbidden)
    kwargs = {"reps": 2, **kwargs}
    with pytest.raises(InvalidSpec, match=f"{name} must be >= 1"):
        monte_carlo(small_cfg(), **kwargs)


@pytest.mark.parametrize("draws", [0, -5])
def test_true_mu_refuses_fewer_than_one_draw_before_any_work(monkeypatch, draws):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the draws were checked")

    monkeypatch.setattr(simulate, "_true_mu_cached", forbidden)
    monkeypatch.setattr(simulate, "resolve_gamma", forbidden)
    with pytest.raises(InvalidSpec, match="draws must be >= 1"):
        simulate.true_mu(small_cfg(), draws)


def test_dataset_shapes():
    cfg = small_cfg(n=10)
    ds, mu, e, f = gen_dataset(cfg, 0)
    assert ds.n == 10
    assert all(c.size in (10, 15) for c in ds.clusters)
    assert all(c.covariates.shape[1] == 4 for c in ds.clusters)
    assert np.isfinite(mu)


def test_h_vector_lengths():
    assert dgp_h(small_cfg(interference="knn5"), 1.0).shape == (128,)
    assert dgp_h(small_cfg(interference="stratified5"), 1.0).shape == (24,)
    assert dgp_h(small_cfg(interference="additive"), 1.0).shape == (120,)


def test_seed_determinism():
    cfg = small_cfg()
    d1, _, _, _ = gen_dataset(cfg, 3, truth=False)
    d2, _, _, _ = gen_dataset(cfg, 3, truth=False)
    for c1, c2 in zip(d1.clusters, d2.clusters):
        assert np.array_equal(c1.covariates, c2.covariates)
        assert np.array_equal(c1.treatments, c2.treatments)
        assert np.array_equal(c1.outcomes, c2.outcomes)
    d3, _, _, _ = gen_dataset(cfg, 4, truth=False)
    assert not np.array_equal(d1.clusters[0].outcomes, d3.clusters[0].outcomes)


def test_outcomes_follow_linear_signal():
    cfg = small_cfg(sigma2=1e-12)
    ds, _, _, _ = gen_dataset(cfg, 0, truth=False)
    structure = dgp_structure(cfg)
    h = dgp_h(cfg, cfg.gamma)
    for c in ds.clusters:
        g = design_rows(structure, c, c.treatments) @ h
        assert np.allclose(c.outcomes, g, atol=1e-4)


ALL_KINDS = ["knn1", "knn2", "knn3", "knn4", "knn5", "stratified5", "additive"]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_closed_form_truth_matches_library_path(kind):
    """Dual route: batched closed-form cluster means vs the structure API.

    Covers clusters with no more units than the kind has neighbors (m <= k)
    and, for additive types, clusters smaller than the largest size.
    """
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 5, 6, 10, 15):
        cfg = small_cfg(interference=kind, cluster_sizes=((m, 0.5), (15, 0.5)))
        x = rng.standard_normal((6, m, 4))
        got = _expected_signal_from_x(cfg, cfg.gamma, x)
        structure = dgp_structure(cfg)
        h = dgp_h(cfg, cfg.gamma)
        for b in range(6):
            c = ClusterSample(covariates=x[b], treatments=np.zeros(m, dtype=int),
                              outcomes=np.zeros(m), cluster_id=b)
            pik = probit_mean_probs(c, cfg.kappa)
            expected = structure.expected_rows(c, pik).mean(axis=0) @ h
            assert got[b] == pytest.approx(expected, abs=1e-10), (m, b)


@pytest.mark.parametrize("kind", ["knn1", "knn5", "stratified5", "additive"])
def test_blocked_truth_equals_single_cluster_calls(kind):
    cfg = small_cfg(interference=kind)
    x = np.random.default_rng(8).standard_normal((1300, 15, 4))
    assert x.shape[0] > 2 * _TRUTH_BLOCK
    batch = _expected_signal_from_x(cfg, cfg.gamma, x)
    single = [_expected_signal_from_x(cfg, cfg.gamma, x[b : b + 1])[0] for b in range(1300)]
    assert np.array_equal(batch, np.array(single))


@pytest.mark.parametrize("kind", ["knn5", "stratified5", "additive"])
def test_blocked_truth_equals_unblocked_batch(kind, monkeypatch):
    cfg = small_cfg(interference=kind)
    x = np.random.default_rng(8).standard_normal((1300, 15, 4))
    blocked = _expected_signal_from_x(cfg, cfg.gamma, x)
    monkeypatch.setattr(simulate, "_TRUTH_BLOCK", x.shape[0])
    assert np.array_equal(blocked, _expected_signal_from_x(cfg, cfg.gamma, x))


def test_truth_integrand_memory_stays_small():
    cfg = small_cfg(interference="knn5")
    x = np.random.default_rng(9).standard_normal((20_000, 15, 4))
    tracemalloc.start()
    try:
        _expected_signal_from_x(cfg, cfg.gamma, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_conditional_mu_equals_balancing_point_noiseless():
    from clusterbal.core import ClusterSample, Dataset
    from clusterbal.estimators import balancing_fit

    cfg = small_cfg(n=30, sigma2=1e-18, interference="stratified5")
    ds, _, _, f = gen_dataset(cfg, 1, truth=False)
    fit = balancing_fit(ds, dgp_structure(cfg), f)
    assert fit.feasible
    assert fit.point == pytest.approx(conditional_true_mu(cfg, ds), abs=1e-6)


def test_true_mu_reproducible_and_finite():
    cfg = small_cfg()
    mu1, se1 = true_mu(cfg, draws=2000)
    mu2, se2 = true_mu(cfg, draws=2000)
    assert mu1 == mu2 and se1 == se2
    assert np.isfinite(mu1) and se1 > 0


def _reference_truth(cfg, draws):
    """The stratified truth with each size's clusters drawn in one call, from
    the stream that `true_mu` draws block by block."""
    rng = simulate._rng(cfg, simulate._STREAM_TRUTH)
    chol = simulate._toeplitz_chol(cfg.rho, cfg.p)
    vals = []
    for m, q in cfg.cluster_sizes:
        x = rng.standard_normal((round(draws * q), m, cfg.p)) @ chol.T
        vals.append((q, _expected_signal_from_x(cfg, cfg.gamma, x)))
    mu = sum(q * v.mean() for q, v in vals)
    var = sum(q * q * v.var(ddof=1) / v.size for q, v in vals)
    return float(mu), math.sqrt(var)


def _cold_true_mu(cfg, draws):
    simulate._true_mu_cached.cache_clear()
    return true_mu(cfg, draws)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_streamed_truth_equals_one_draw_per_size(kind):
    cfg = small_cfg(interference=kind)
    draws = 2345  # 1172 clusters per size: two full blocks and a partial one
    assert round(draws * 0.5) % _TRUTH_BLOCK
    got = _cold_true_mu(cfg, draws)
    assert [v.hex() for v in got] == [v.hex() for v in _reference_truth(cfg, draws)]


@pytest.mark.parametrize("workers", [1, 3])
def test_truth_does_not_depend_on_the_worker_count(workers, monkeypatch):
    cfg = small_cfg(interference="knn5")
    default = _cold_true_mu(cfg, 2345)
    monkeypatch.setattr(simulate, "_available_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to expose a lost or misplaced block
    try:
        assert _cold_true_mu(cfg, 2345) == default
    finally:
        sys.setswitchinterval(interval)


def test_truth_leaves_no_thread_behind():
    before = threading.active_count()
    _cold_true_mu(small_cfg(interference="knn3"), 3000)
    assert threading.active_count() == before


def test_additive_truth_runs_in_the_calling_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the additive truth opened a thread pool")

    cfg = small_cfg(interference="additive")
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    got = _cold_true_mu(cfg, 2345)
    assert [v.hex() for v in got] == [v.hex() for v in _reference_truth(cfg, 2345)]


def test_truth_memory_stays_small():
    cfg = small_cfg(interference="knn5")
    simulate._true_mu_cached.cache_clear()
    tracemalloc.start()
    try:
        true_mu(cfg, 60_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_truth_shared_across_n():
    cfg = small_cfg(n=4, seed=23)
    simulate._true_mu_cached.cache_clear()
    rows = sweep(cfg, "n", (4, 6, 8), reps=1, estimators=("ipw",), truth_draws=2000)
    assert simulate._true_mu_cached.cache_info().misses == 1
    assert len({r["true_mu"] for r in rows}) == 1


def test_zero_probability_size_adds_nothing_to_the_truth():
    cfg = DGPConfig(n=10, interference="knn2", cluster_sizes=((10, 1.0), (15, 0.0)), gamma=1.0)
    alone = replace(cfg, cluster_sizes=((10, 1.0),))
    mu, se = true_mu(cfg, 2000)
    assert np.isfinite(se) and se > 0
    assert (mu, se) == true_mu(alone, 2000)


def test_rare_size_draws_at_least_two_clusters():
    # round(2000 * 0.0004) = 1 cluster of size 15 would leave no variance
    cfg = DGPConfig(n=10, interference="knn2", cluster_sizes=((10, 0.9996), (15, 0.0004)),
                    gamma=1.0)
    mu, se = true_mu(cfg, 2000)
    assert np.isfinite(mu) and np.isfinite(se) and se > 0


def test_kappa_zero_weights_are_inverse_cluster_size():
    cfg = small_cfg(kappa=0.0)
    ds, _, e, f = gen_dataset(cfg, 0, truth=False)
    from clusterbal.estimators import ipw_weights

    w = ipw_weights(ds, f, e)
    expected = np.concatenate([np.full(c.size, 1.0 / c.size) for c in ds.clusters])
    assert np.allclose(w, expected, atol=1e-12)


# ---------- calibration ----------


def test_calibration_scaling_laws():
    base = DGPConfig(n=4, snr_target=0.2, seed=7)
    g1 = calibrate_snr(base).gamma
    g2 = calibrate_snr(DGPConfig(n=4, snr_target=0.4, seed=7)).gamma
    assert g2 / g1 == pytest.approx(np.sqrt(2.0), rel=0.02)
    g4 = calibrate_snr(DGPConfig(n=4, snr_target=0.2, sigma2=4.0, seed=7)).gamma
    assert g4 / g1 == pytest.approx(2.0, rel=0.02)


def test_calibration_default_target_positive():
    rep = calibrate_snr(DGPConfig(n=4, snr_target=0.2, seed=1))
    assert rep.gamma > 0 and np.isfinite(rep.gamma)
    assert rep.se_gamma >= 0


def test_resolve_gamma_cached():
    cfg = DGPConfig(n=6, snr_target=0.2, seed=3)
    r1 = resolve_gamma(cfg)
    r2 = resolve_gamma(DGPConfig(n=60, snr_target=0.2, seed=3))
    assert r1.gamma == r2.gamma  # calibration independent of n


# ---------- monte carlo ----------


def test_monte_carlo_single_rep_has_no_sd():
    cfg = small_cfg(n=6)
    res = monte_carlo(cfg, reps=1, estimators=("ipw",), truth_draws=2000)
    m = res.metrics["ipw"]
    assert np.isnan(m["sd"])
    assert m["coverage"] in (0.0, 1.0)


def test_monte_carlo_metrics_and_rows():
    cfg = small_cfg(n=10, interference="stratified5")
    res = monte_carlo(cfg, reps=4, truth_draws=2000)
    for name in ("ipw", "balancing", "projection"):
        m = res.metrics[name]
        assert 0.0 <= m["feasibility_rate"] <= 1.0
        assert np.isfinite(m["bias"])
    rows = res.rows(extra={"n": cfg.n})
    assert len(rows) == 3
    assert rows[0]["n"] == cfg.n


def test_monte_carlo_serial_parallel_identical():
    cfg = small_cfg(n=6)
    r1 = monte_carlo(cfg, reps=4, truth_draws=2000, parallel=False)
    # a cold truth runs its thread pool right before the process pool starts its workers
    simulate._true_mu_cached.cache_clear()
    r2 = monte_carlo(cfg, reps=4, truth_draws=2000, parallel=True, workers=2)
    assert set(r1.metrics) == set(r2.metrics)
    for name in r1.metrics:
        for key, a in r1.metrics[name].items():
            b = r2.metrics[name][key]
            assert (a != a and b != b) or a == b  # bitwise equal, NaN-aware
    assert r1.true_mu == r2.true_mu


def test_sweep_rows_shape():
    cfg = small_cfg(n=6)
    rows = sweep(cfg, "n", (4, 6), reps=2, estimators=("ipw",))
    assert len(rows) == 2
    assert {r["n"] for r in rows} == {4, 6}


def test_sweep_checks_each_value_as_its_field():
    cfg = small_cfg(n=6)
    for axis, values in (("n", [2.7]), ("n", ["4"]), ("kappa", [math.nan])):
        with pytest.raises(InvalidSpec, match="sweep spec field 'values'"):
            sweep(cfg, axis, values, reps=1, estimators=("ipw",))
    # each row is labelled with the value it ran
    rows = sweep(cfg, "n", [3.0], reps=1, estimators=("ipw",), truth_draws=2000)
    assert [(r["n"], type(r["n"])) for r in rows] == [(3, int)]


def test_presets_resolve():
    for name in ("fig1-left", "fig1-mid", "fig1-right", "stratified", "additive"):
        cfg, axis, values = preset_config(name, seed=5)
        assert axis in ("n", "kappa", "snr_target")
        assert len(values) >= 1
        assert cfg.seed == 5
    with pytest.raises(InvalidSpec):
        preset_config("fig1-up")


def test_estimator_errors_recorded_not_fatal():
    # additive types have no exposure mapping, so exposure-ipw fails in every replicate
    cfg = small_cfg(n=4, interference="additive")
    res = monte_carlo(cfg, reps=2, estimators=("exposure-ipw",), truth_draws=2000)
    assert res.metrics["exposure-ipw"]["errors"] == 2



def test_unknown_estimator_names_rejected_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the estimator names were checked")

    monkeypatch.setattr(simulate, "true_mu", forbidden)
    monkeypatch.setattr(simulate, "_replicate", forbidden)
    with pytest.raises(InvalidSpec, match=r"unknown estimators \['foo', 'bar'\]"):
        monte_carlo(small_cfg(n=4), reps=2, estimators=("ipw", "foo", "bar"))


def test_rows_carry_the_failures_by_class():
    cfg = small_cfg(n=4, interference="additive")
    res = monte_carlo(cfg, reps=2, estimators=("ipw", "exposure-ipw"), truth_draws=2000)
    rows = res.rows()
    assert [r["error_classes"] for r in rows] == [{}, {"InvalidSpec": 2}]
    assert [r["errors"] for r in rows] == [0, 2]


def test_exposure_ipw_replicate_matches_direct_fit():
    cfg = small_cfg(n=6)
    res = monte_carlo(cfg, reps=1, estimators=("exposure-ipw",), truth_draws=2000)
    metrics = res.metrics["exposure-ipw"]
    assert metrics["errors"] == 0
    dataset, _, propensity, weight = gen_dataset(cfg, 0, truth=False)
    mapping = dgp_structure(cfg).exposure_mapping
    assert isinstance(mapping, NeighborPattern) and mapping.k == 5
    direct = exposure_collapsed_ipw(dataset, mapping, weight, propensity).point
    assert metrics["bias"] + res.true_mu == pytest.approx(direct, rel=1e-12, abs=1e-15)
