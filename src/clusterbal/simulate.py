"""Data-generating processes and the Monte-Carlo harness.

Clusters are drawn i.i.d.: sizes from a two-point law, covariates from a
Toeplitz-correlated normal, treatments from a probit assignment law, and
outcomes from a linear low-rank signal plus homoskedastic noise. The
counterfactual policy is a tilted intervention from the same probit family.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .core import Dataset, _probit_terms, probit_intervention, probit_propensity
from .errors import CalibrationFailed, InvalidSpec
from .estimators import build_design
from .inference import DESIGN_FITS, ESTIMATORS, _check_unit_interval, fit_estimator
from .specio import spec_float, spec_int
from .structures import (
    AdditiveTypes,
    KnnPattern,
    StratifiedCount,
    TensorWithCovariates,
    _size_groups,
    knn_order,
    observed_signal,
    target_vector,
)

_STREAM_DATA = 0
_STREAM_CALIBRATION = 1
_STREAM_TRUTH = 2

DEFAULT_ESTIMATORS = ("ipw", "balancing", "projection")


@dataclass(frozen=True)
class DGPConfig:
    n: int
    interference: str = "knn5"  # knn5 | stratified5 | additive
    kappa: float = 0.2
    snr_target: float = 0.2
    sigma2: float = 1.0
    rho: float = 0.5
    cluster_sizes: tuple = ((10, 0.5), (15, 0.5))
    p: int = 4
    seed: int = 0
    gamma: float | None = None  # signal scale; calibrated from snr_target when None

    def __post_init__(self):
        """Each field checked as a config spec field and kept as the int or
        float it was checked as; InvalidSpec names the first bad field."""
        what, doc = "config", vars(self)
        for key in ("n", "p", "seed"):
            object.__setattr__(self, key, spec_int(doc, key, what))
        for key in ("kappa", "snr_target", "sigma2", "rho") + ("gamma",) * (self.gamma is not None):
            object.__setattr__(self, key, spec_float(doc, key, what))
        kinds = ("knn1", "knn2", "knn3", "knn4", "knn5", "stratified5", "additive")
        if self.interference not in kinds:
            raise InvalidSpec(f"{what} spec field 'interference' must be one of {', '.join(kinds)}, "
                              f"got {self.interference!r}")
        try:
            sizes = tuple((spec_int({"cluster_sizes": m}, "cluster_sizes", what),
                           spec_float({"cluster_sizes": q}, "cluster_sizes", what))
                          for m, q in self.cluster_sizes)
        except (TypeError, ValueError):
            raise InvalidSpec(f"{what} spec field 'cluster_sizes' must be [[m, prob], ...], "
                              f"got {self.cluster_sizes!r}") from None
        if self.n < 1:
            raise InvalidSpec("n must be >= 1")
        if not -1.0 < self.rho < 1.0:
            raise InvalidSpec("rho must lie in (-1, 1)")
        if self.sigma2 <= 0:
            raise InvalidSpec("sigma2 must be positive")
        if self.snr_target <= 0:
            raise InvalidSpec("snr_target must be positive")
        if abs(sum(q for _, q in sizes) - 1.0) > 1e-10:
            raise InvalidSpec("cluster size probabilities must sum to 1")
        if any(m < 1 or q < 0 for m, q in sizes):
            raise InvalidSpec("cluster sizes must be >= 1 with nonnegative probabilities")
        object.__setattr__(self, "cluster_sizes", sizes)
        if self.p != 4:
            raise InvalidSpec("the simulation design uses p = 4 covariates")


_DGP_COLUMNS = [0, 1, 2, {"cluster_mean": 3}]


def dgp_structure(cfg):
    """The true low-rank structure of the configured interference kind."""
    if cfg.interference.startswith("knn"):
        inner = KnnPattern(int(cfg.interference[3:]))
    elif cfg.interference == "stratified5":
        inner = StratifiedCount(5, include_own=False)
    else:
        inner = AdditiveTypes(max(m for m, _ in cfg.cluster_sizes), type_source="unit_index")
    return TensorWithCovariates(inner, columns=_DGP_COLUMNS, label=cfg.interference)


def dgp_h(cfg, gamma):
    """Coefficient vector of the configured interference kind, scaled by gamma.

    The k-NN kinds assign the values 1..2^k to the neighbor-pattern slots in
    bit-reversed enumeration order, so that the t-th nearest neighbor's
    treatment contributes 2^(t-1): every rung of the candidate ladder then
    misses a detectable signal component.
    """
    if cfg.interference.startswith("knn"):
        k = int(cfg.interference[3:])
        slots = np.arange(2**k)
        base = np.ones(2**k)
        for t in range(1, k + 1):
            bit = (slots >> (k - t)) & 1
            base += bit * 2.0 ** (t - 1)
    elif cfg.interference == "stratified5":
        base = np.arange(1, 7, dtype=np.float64)
    else:
        s = max(m for m, _ in cfg.cluster_sizes)
        base = np.zeros(2 * s)
        base[1::2] = np.arange(1, s + 1)
    return gamma * np.kron(base, np.ones(cfg.p))


def _toeplitz_chol(rho, p):
    cov = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return np.linalg.cholesky(cov)


def _rng(cfg, stream, index=0):
    return np.random.default_rng(
        np.random.SeedSequence([int(cfg.seed), int(stream), int(index)])
    )


def _draw_sizes(cfg, rng, n):
    sizes = np.array([m for m, _ in cfg.cluster_sizes])
    probs = np.array([q for _, q in cfg.cluster_sizes])
    return rng.choice(sizes, size=n, p=probs)


def _draw_clusters(cfg, rng, sizes, noise):
    """Unit-stacked covariates (N, p), treatments (N,) int8 and outcome noise
    (N,) of clusters of the drawn sizes, in cluster order.

    The RNG calls stay in one loop over clusters, in the order covariates,
    uniforms, noise (noise=False draws none, and the noise is empty), which
    is the stream of a per-cluster draw. The covariate transform, the probit
    masses and the treatments are computed once per cluster size.
    """
    chol = _toeplitz_chol(cfg.rho, cfg.p)
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    z, u, eps = np.empty((total, cfg.p)), np.empty(total), np.empty(total if noise else 0)
    for start, m in zip(starts.tolist(), sizes.tolist()):
        z[start : start + m] = rng.standard_normal((m, cfg.p))
        u[start : start + m] = rng.random(m)
        if noise:
            eps[start : start + m] = rng.standard_normal(m)
    x, a = np.empty_like(z), np.empty(total, dtype=np.int8)
    for m in np.unique(sizes).tolist():
        rows = starts[sizes == m, None] + np.arange(m)
        # a stacked (B, m, p) @ (p, p) keeps each cluster's bits; a (B*m, p) one does not
        xm = z[rows] @ chol.T
        x[rows] = xm
        a[rows] = u[rows] < _probit_terms(xm, 0.0)
    return x, a, eps


def gen_dataset(cfg, replicate_index, truth=True):
    """One replicate: (dataset, true_mu_f, propensity model, counterfactual weight).

    Deterministic in (cfg, replicate_index); the returned truth is the
    population estimand shared by every replicate of the config (truth=False
    skips its computation and returns None in that slot).
    """
    cfg = resolve_gamma(cfg)
    rng = _rng(cfg, _STREAM_DATA, replicate_index)
    sizes = _draw_sizes(cfg, rng, cfg.n)
    x, a, eps = _draw_clusters(cfg, rng, sizes, noise=True)
    dataset = Dataset.from_arrays(x, a, np.zeros(a.size), sizes, range(cfg.n))
    y = observed_signal(dgp_structure(cfg), dataset, dgp_h(cfg, cfg.gamma))
    y += math.sqrt(cfg.sigma2) * eps
    mu = true_mu(cfg)[0] if truth else None
    # the dataset with the outcomes keeps the k-NN lists the signal cached
    return dataset.with_outcomes(y), mu, probit_propensity(0.0), probit_intervention(cfg.kappa)


def conditional_true_mu(cfg, dataset):
    """Conditional-on-covariates estimand of one dataset: t^T h / n."""
    cfg = resolve_gamma(cfg)
    structure = dgp_structure(cfg)
    h = dgp_h(cfg, cfg.gamma)
    return float(target_vector(structure, dataset, probit_intervention(cfg.kappa)) @ h / dataset.n)


# clusters per block of the closed-form truth; keeps its arrays near cache
# size. Each cluster's value is reduced from its own rows alone, so it does
# not depend on the cluster's position in the batch or the block.
_TRUTH_BLOCK = 512


def _expected_signal_from_x(cfg, gamma, x):
    """Closed-form per-cluster counterfactual means from covariates (B, m, p).

    Exploits the product form of the intervention and the count/pattern/
    additive encodings: the inner pattern sum reduces to per-neighbor
    marginals, so no pattern enumeration is needed. Clusters are evaluated
    in blocks of `_TRUTH_BLOCK`, which gives the values of one evaluation of
    the whole batch.
    """
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _TRUTH_BLOCK):
        stop = start + _TRUTH_BLOCK
        out[start:stop] = _expected_signal_block(cfg, gamma, x[start:stop])
    return out


def _expected_signal_block(cfg, gamma, x):
    m = x.shape[1]
    pik = _probit_terms(x, cfg.kappa)
    s = x[:, :, :3].sum(axis=2) + x[:, :, 3].mean(axis=1)[:, None]
    if cfg.interference == "additive":
        types = np.arange(1, m + 1, dtype=np.float64)
        return gamma * (pik * types).sum(axis=1) * s.mean(axis=1)
    k = int(cfg.interference[3:]) if cfg.interference.startswith("knn") else 5
    nbrs = knn_order(x, k)
    pik_nbrs = pik[np.arange(x.shape[0])[:, None, None], nbrs]
    if cfg.interference.startswith("knn"):
        weights = 2.0 ** np.arange(nbrs.shape[2])
        expected_slot = pik_nbrs @ weights
    else:
        expected_slot = pik_nbrs.sum(axis=2)
    return gamma * ((expected_slot + 1.0) * s).mean(axis=1)


def _available_cpus():
    """CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _truth_workers(cfg):
    """Threads that evaluate the truth's blocks; 1 means the calling thread.

    A neighbor-based block spends its time in the (B, m, m) distance loops
    and the stable argsort, which release the GIL, so it gets one worker per
    available CPU. An additive block is a few short ufunc calls that hold the
    GIL: threads would gain nothing and would make the drawing thread wait
    for the GIL after every draw, so its blocks run in the calling thread.
    """
    return 1 if cfg.interference == "additive" else _available_cpus()


@lru_cache(maxsize=32)
def _true_mu_cached(cfg, draws):
    """(mu, se) of a gamma-resolved config; see `true_mu`.

    The calling thread draws each size stratum in blocks of `_TRUTH_BLOCK`
    clusters, in stream order. With more than one worker a thread pool
    evaluates the blocks; at most two blocks per worker are in flight, and
    their values are stored in submission order. A size of probability 0
    adds nothing; any other draws at least two clusters, the fewest that
    give a variance.
    """
    rng = _rng(cfg, _STREAM_TRUTH)
    chol = _toeplitz_chol(cfg.rho, cfg.p)
    strata = [
        (m, q, np.empty(max(2, round(draws * q)))) for m, q in cfg.cluster_sizes if q > 0
    ]

    def blocks():
        for m, _, vals in strata:
            for start in range(0, vals.size, _TRUTH_BLOCK):
                block = vals[start : start + _TRUTH_BLOCK]
                yield block, rng.standard_normal((block.size, m, cfg.p)) @ chol.T

    workers = _truth_workers(cfg)
    if workers == 1:
        for block, x in blocks():
            block[:] = _expected_signal_block(cfg, cfg.gamma, x)
    else:
        pending = deque()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for block, x in blocks():
                if len(pending) == 2 * workers:
                    view, future = pending.popleft()
                    view[:] = future.result()
                pending.append((block, pool.submit(_expected_signal_block, cfg, cfg.gamma, x)))
            for view, future in pending:
                view[:] = future.result()
    mu = sum(q * v.mean() for _, q, v in strata)
    var = sum(q * q * v.var(ddof=1) / v.size for _, q, v in strata)
    return float(mu), float(math.sqrt(var))


def true_mu(cfg, draws=400_000):
    """Population estimand of a config by stratified cluster Monte Carlo.

    Returns (mu, standard error); cached per config, so replicates share one
    evaluation, and keyed on n=1, since the truth does not depend on the
    number of clusters. The values do not depend on the number of workers.
    Fewer than one draw raises InvalidSpec before any work.
    """
    _check_count(draws, "draws")
    return _true_mu_cached(replace(resolve_gamma(cfg), n=1), int(draws))


def _check_count(value, name):
    """InvalidSpec unless value, a count of draws, replicates or workers, is at least 1."""
    if not value >= 1:
        raise InvalidSpec(f"{name} must be >= 1, got {value!r}")


@dataclass(frozen=True)
class CalibrationReport:
    gamma: float
    snr_at_unit_gamma: float
    se_gamma: float
    draws: int


def calibrate_snr(cfg, draws=2000):
    """Signal scale hitting the target signal-to-noise ratio.

    SNR(gamma) = Var[g^T w_IPW] / (sigma2 * E||w_IPW||^2) is quadratic in
    gamma, so gamma = sqrt(target / SNR(1)) with both moments estimated from
    `draws` simulated clusters under the assignment law (fixed sub-seed).
    """
    return _calibration_report(cfg, *_calibration_moments(cfg, draws))


# simulated clusters per block of the calibration; the draws stay in stream
# order, and a block's arrays and clusters stay a few hundred kB
_CALIBRATION_BLOCK = 256


def _calibration_moments(cfg, draws):
    """Per-draw IPW signal g^T w and squared weight norm ||w||^2 at gamma = 1."""
    rng = _rng(cfg, _STREAM_CALIBRATION)
    sizes = _draw_sizes(cfg, rng, draws)
    structure, h1 = dgp_structure(cfg), dgp_h(cfg, 1.0)
    signal = np.empty(draws)
    norm2 = np.empty(draws)
    for start in range(0, draws, _CALIBRATION_BLOCK):
        block = sizes[start : start + _CALIBRATION_BLOCK]
        x, a, _ = _draw_clusters(cfg, rng, block, noise=False)
        dataset = Dataset.from_arrays(x, a, np.zeros(a.size), block, range(block.size))
        g = observed_signal(structure, dataset, h1)
        for group, idx, rows in _size_groups(dataset):
            m = rows.shape[1]
            pi0 = _probit_terms(group.covariates, 0.0)
            pik = _probit_terms(group.covariates, cfg.kappa)
            af = group.treatments.astype(np.float64)
            ratio = np.prod(np.where(af == 1, pik / pi0, (1.0 - pik) / (1.0 - pi0)), axis=1)
            w_scalar = ratio / m
            signal[start + idx] = w_scalar * g[rows].sum(axis=1)
            norm2[start + idx] = m * w_scalar**2
    return signal, norm2


def _calibration_report(cfg, signal, norm2):
    draws = signal.size
    num = float(signal.var(ddof=1))
    den = float(cfg.sigma2 * norm2.mean())
    if num <= 0 or den <= 0:
        raise CalibrationFailed(f"degenerate SNR moments: var={num}, denom={den}")
    snr1 = num / den
    gamma = math.sqrt(cfg.snr_target / snr1)
    # delta-method standard error of the variance-ratio calibration
    centered = signal - signal.mean()
    se_num = math.sqrt(max(np.var(centered**2, ddof=1), 0.0) / draws)
    se_den = cfg.sigma2 * float(norm2.std(ddof=1)) / math.sqrt(draws)
    se_snr = snr1 * math.sqrt((se_num / num) ** 2 + (se_den / den) ** 2)
    se_gamma = 0.5 * gamma * se_snr / snr1
    return CalibrationReport(gamma=gamma, snr_at_unit_gamma=snr1, se_gamma=se_gamma, draws=draws)


@lru_cache(maxsize=32)
def _gamma_cached(key_cfg):
    return calibrate_snr(key_cfg).gamma


def resolve_gamma(cfg):
    """Config with gamma fixed (calibrating it from snr_target when unset)."""
    if cfg.gamma is not None:
        return cfg
    # calibration does not depend on the number of clusters, so key on n=1
    return replace(cfg, gamma=_gamma_cached(replace(cfg, n=1, gamma=None)))


# ---------- Monte Carlo ----------


def _replicate(cfg, replicate_index, estimators, level):
    dataset, _, propensity, weight = gen_dataset(cfg, replicate_index, truth=False)
    structure = dgp_structure(cfg)
    design = None
    if any(name in DESIGN_FITS for name in estimators):
        design = build_design(structure, dataset, weight)
    out = {}
    for name in estimators:
        try:
            fit, var = fit_estimator(
                name, dataset, weight, propensity, structure, design,
                structure.exposure_mapping, level,
            )
            out[name] = {
                "point": fit.point,
                "feasible": bool(fit.feasible),
                "ci_low": var.ci_low if var is not None else float("nan"),
                "ci_high": var.ci_high if var is not None else float("nan"),
            }
        except Exception as exc:  # per-replicate estimator failures are recorded
            out[name] = {"error": f"{type(exc).__name__}: {exc}", "error_class": type(exc).__name__}
    return out


def _replicate_task(args):
    return _replicate(*args)


@dataclass(frozen=True)
class MCResult:
    """Per-estimator Monte-Carlo metrics plus the config that produced them."""

    metrics: dict  # estimator -> {bias, sd, coverage, ci_length, feasibility_rate, ...}
    reps: int
    true_mu: float
    true_mu_se: float
    config: DGPConfig
    error_classes: dict = field(default_factory=dict)  # estimator -> {exception class: count}

    def rows(self, extra=None):
        out = []
        for name, m in self.metrics.items():
            row = dict(extra or {})
            row["estimator"] = name
            row.update(m)
            row["reps"] = self.reps
            row["true_mu"] = self.true_mu
            row["error_classes"] = self.error_classes.get(name, {})
            out.append(row)
        return out


def monte_carlo(
    cfg,
    reps,
    estimators=DEFAULT_ESTIMATORS,
    level=0.95,
    parallel=False,
    workers=None,
    truth_draws=400_000,
):
    """Replicated fits of the configured DGP with coverage bookkeeping.

    Metrics are averaged over feasible replicates only (only balancing fits
    can be infeasible); failed estimator evaluations count as failed
    replicates for that estimator (`metrics[e]["errors"]`), and
    `error_classes[e]` counts them by exception class. An estimator name not
    in ESTIMATORS, a level outside (0, 1), or fewer than one replicate,
    worker or truth draw raises InvalidSpec before any work.
    Deterministic in (cfg, reps) regardless of parallelism.
    """
    _check_count(reps, "reps")
    if workers is not None:
        _check_count(workers, "workers")
    _check_count(truth_draws, "truth_draws")
    _check_unit_interval(level, "level")
    estimators = tuple(estimators)
    unknown = [name for name in estimators if name not in ESTIMATORS]
    if unknown:
        raise InvalidSpec(f"unknown estimators {unknown}; choose from {list(ESTIMATORS)}")
    cfg = resolve_gamma(cfg)
    mu, mu_se = true_mu(cfg, truth_draws)
    tasks = [(cfg, r, estimators, level) for r in range(reps)]
    if parallel and reps > 1:
        # spawned, not forked: this process may already run BLAS and truth threads
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            results = list(pool.map(_replicate_task, tasks, chunksize=8))
    else:
        results = [_replicate_task(t) for t in tasks]

    metrics, error_classes = {}, {}
    for name in estimators:
        recs = [r[name] for r in results]
        failed = Counter(r["error_class"] for r in recs if "error" in r)
        error_classes[name] = dict(sorted(failed.items()))
        errors = sum(failed.values())
        ok = [r for r in recs if "error" not in r]
        used = [r for r in ok if r["feasible"]]
        points = np.array([r["point"] for r in used])
        lo = np.array([r["ci_low"] for r in used])
        hi = np.array([r["ci_high"] for r in used])
        with_ci = ~(np.isnan(lo) | np.isnan(hi))
        covered = (lo[with_ci] <= mu) & (mu <= hi[with_ci])
        metrics[name] = {
            "bias": float(points.mean() - mu) if points.size else float("nan"),
            "sd": float(points.std(ddof=1)) if points.size > 1 else float("nan"),
            "coverage": float(covered.mean()) if covered.size else float("nan"),
            "ci_length": float((hi[with_ci] - lo[with_ci]).mean()) if with_ci.any() else float("nan"),
            "feasibility_rate": (len(used) / len(ok)) if ok else float("nan"),
            "n_used": len(used),
            "errors": errors,
        }
    return MCResult(
        metrics=metrics,
        reps=reps,
        true_mu=mu,
        true_mu_se=mu_se,
        config=cfg,
        error_classes=error_classes,
    )


# ---------- presets and sweeps ----------

PRESETS = {
    "fig1-left": {"base": {"interference": "knn5"}, "axis": "n", "values": (100, 300, 500)},
    "fig1-mid": {
        "base": {"interference": "knn5", "n": 300},
        "axis": "snr_target",
        "values": (0.05, 0.2, 1.0),
    },
    "fig1-right": {
        "base": {"interference": "knn5", "n": 300},
        "axis": "kappa",
        "values": (0.2, 2.0, 6.0),
    },
    "stratified": {"base": {"interference": "stratified5"}, "axis": "n", "values": (300,)},
    "additive": {"base": {"interference": "additive"}, "axis": "n", "values": (300,)},
}


def sweep_values(axis, values, what="sweep"):
    """The sweep values checked as the DGPConfig field their axis sets: whole
    numbers for n, finite numbers for kappa and snr_target, the only axes;
    InvalidSpec naming the axis, or the first value, that is not."""
    if axis not in ("n", "kappa", "snr_target"):
        raise InvalidSpec(f"{what} spec field 'axis' must be n, kappa or snr_target, got {axis!r}")
    check = spec_int if axis == "n" else spec_float
    return tuple(check({"values": v}, "values", what) for v in values)


def sweep(
    cfg,
    axis,
    values,
    reps,
    estimators=DEFAULT_ESTIMATORS,
    level=0.95,
    parallel=False,
    workers=None,
    truth_draws=400_000,
):
    """Vary one config axis (n | kappa | snr_target) and collect MC rows,
    each labelled with its value as checked by `sweep_values`."""
    rows = []
    for v in sweep_values(axis, values):
        point_cfg = replace(cfg, **{axis: v}, gamma=None)
        res = monte_carlo(
            point_cfg,
            reps,
            estimators,
            level,
            parallel=parallel,
            workers=workers,
            truth_draws=truth_draws,
        )
        rows.extend(res.rows(extra={axis: v}))
    return rows


def preset_config(name, seed=0, overrides=None):
    if name not in PRESETS:
        raise InvalidSpec(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    base = dict(PRESETS[name]["base"])
    base.setdefault("n", 300)
    base.update(overrides or {})
    base["seed"] = seed
    return DGPConfig(**base), PRESETS[name]["axis"], PRESETS[name]["values"]
