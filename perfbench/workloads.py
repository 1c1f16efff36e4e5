"""The benchmark's workloads: inputs, timed rounds and output checks.

Every workload is a closed loop with one caller: a round calls the same
public clusterbal functions on the same inputs, and the next round starts
when the previous one has returned. `ops` names the operations a round
attempts; `verify` checks the first round's outputs against the references
in `checks`, and every later round must reproduce the first exactly.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import replace
from statistics import fmean

import numpy as np
from scipy.stats import chi2

import clusterbal
from clusterbal import cli, simulate
from clusterbal.core import ClusterSample, Dataset, probit_intervention, probit_propensity
from clusterbal.numerics import FEAS_TOL
from clusterbal.structures import (
    AdditiveTypes,
    KnnPattern,
    NeighborPattern,
    TensorWithCovariates,
    build_structure,
    design_matrix,
    target_vector,
)

import checks
from checks import close, verdict

ROUND_REPS = 4  # Monte-Carlo replicates per round of the simulation workloads
TRUTH_DRAWS = 400_000  # the library default of monte_carlo/true_mu
DGP_COLUMNS = [0, 1, 2, {"cluster_mean": 3}]  # the simulation design's covariate slots
KAPPA = 0.2  # tilt of the counterfactual policy (DGPConfig default)

TRUTH_FAULT = (
    "simulate._expected_signal_from_x weighs the k-NN neighbors 2^(k-1)..1; "
    "dgp_h gives the t-th neighbor 2^(t-1)"
)
CSV_FAULT = (
    "cli._fmt: the isinstance(v, float) branch catches np.float64 and writes "
    "repr(v) unconverted, e.g. np.float64(...)"
)


def timed(tracer, name, fn, *args, **kwargs):
    """(seconds, result) of one operation; a span named op.<name> when traced."""
    start = time.perf_counter()
    if tracer is None:
        out = fn(*args, **kwargs)
    else:
        out = tracer.span("op." + name, fn, *args, **kwargs)
    return time.perf_counter() - start, out


def fresh(dataset):
    """A copy of a dataset whose per-cluster caches (k-NN lists, probit masses) are cold."""
    return Dataset(
        clusters=tuple(
            ClusterSample(
                covariates=c.covariates, treatments=c.treatments,
                outcomes=c.outcomes, cluster_id=c.cluster_id,
            )
            for c in dataset.clusters
        )
    )


def observed_system(structure, dataset):
    """Observed design phi and target t, built by the program (checks solve them apart)."""
    return (design_matrix(structure, dataset),
            target_vector(structure, dataset, probit_intervention(KAPPA)))


def design_fit_checks(op, dataset, phi, t, points, w_ipw_ref, w_bal, w_proj, feasible):
    """Balancing and projection weights against lstsq, plus the OLS plug-in identity."""
    y = np.concatenate([c.outcomes for c in dataset.clusters])
    n = dataset.n
    w_ref, _ = checks.min_norm_rows(phi, t)
    resid = float(np.linalg.norm(phi.T @ w_bal - t) / max(float(np.linalg.norm(t)), 1.0))
    h_ols = np.linalg.lstsq(phi, y, rcond=None)[0]
    p_ref, _ = checks.colspace_projection(phi, w_ipw_ref)
    return [
        close(op, "balancing weights = lstsq min-norm solution of phi^T w = t", w_bal, w_ref),
        verdict(op, "balancing relative residual <= FEAS_TOL and fit feasible",
                resid <= FEAS_TOL and feasible, f"relative residual {resid:.3g}"),
        close(op, "balancing point = w_lstsq . y / n", points["balancing"], w_ref @ y / n),
        close(op, "OLS plug-in point t^T h_ols / n = balancing point",
              points["balancing"], t @ h_ols / n),
        close(op, "projection weights = lstsq projection of IPW weights", w_proj, p_ref),
        close(op, "projection point = w_proj . y / n", points["projection"], p_ref @ y / n),
    ], w_ref


# ---------- Monte-Carlo simulation ----------


class Simulation:
    """Serial monte_carlo over the probit DGP, with cold calibration and truth."""

    estimators = ("ipw", "balancing", "projection")

    def __init__(self, interference):
        self.interference = interference
        self.ops = ("calibrate",) + tuple(f"replicate{r}" for r in range(ROUND_REPS)) + (
            "mc_summary", "truth")

    def setup(self, seed, workdir):
        return {"cfg": simulate.DGPConfig(n=300, interference=self.interference, seed=seed)}

    def once(self, state):
        """Fix gamma by calibration, then time one cold true_mu (its lru_cache
        is empty in a new process); monte_carlo reuses that truth."""
        report = simulate.calibrate_snr(state["cfg"])
        state["mc_cfg"] = replace(state["cfg"], gamma=report.gamma)
        truth_s, _ = timed(None, "truth", simulate.true_mu, state["mc_cfg"], TRUTH_DRAWS)
        return {"truth_s": truth_s}

    def round(self, state, tracer):
        """A cold calibrate_snr (it is not cached) and monte_carlo of ROUND_REPS replicates."""
        cal_s, report = timed(tracer, "calibrate", simulate.calibrate_snr, state["cfg"])
        mc_s, result = timed(
            tracer, "monte_carlo", simulate.monte_carlo, state["mc_cfg"], ROUND_REPS,
            self.estimators, truth_draws=TRUTH_DRAWS,
        )
        return {"calibrate": cal_s, "monte_carlo": mc_s}, (report, result)

    def differs(self, first, out):
        (cal_a, mc_a), (cal_b, mc_b) = first, out
        changed = set() if cal_a == cal_b else {"calibrate"}
        same = json.dumps(mc_a.metrics, sort_keys=True) == json.dumps(mc_b.metrics, sort_keys=True)
        if not (same and mc_a.true_mu == mc_b.true_mu):
            changed |= set(self.ops) - {"calibrate"}
        return changed

    def metrics(self, once, rounds):
        per_rep = fmean(r["monte_carlo"] for r in rounds) / ROUND_REPS
        calibrate = fmean(r["calibrate"] for r in rounds)
        named = {
            "sim_reps_per_s": (1.0 / per_rep, "replicates/s"),
            "truth_s": (once["truth_s"], "s"),
            "calibrate_s": (calibrate, "s"),
        }
        return named, {"op1_s": per_rep, "op2_s": once["truth_s"], "op3_s": calibrate}

    def verify(self, state, output):
        """Regenerated replicates (gen_dataset is deterministic in (cfg, r)) and the truth."""
        report, result = output
        cfg = state["mc_cfg"]
        snr = report.gamma**2 * report.snr_at_unit_gamma
        out = [
            close("calibrate", "gamma^2 * SNR(gamma=1) = snr_target", snr, cfg.snr_target,
                  checks.EXACT_RTOL),
            verdict("calibrate", "gamma equals the calibration that fixed the Monte-Carlo config",
                    report.gamma == cfg.gamma, f"gamma {report.gamma!r} vs {cfg.gamma!r}"),
        ]
        points = {e: [] for e in self.estimators}
        for r in range(ROUND_REPS):
            op = f"replicate{r}"
            dataset, _, propensity, weight = simulate.gen_dataset(cfg, r, truth=False)
            structure = simulate.dgp_structure(cfg)
            fits = {
                "ipw": clusterbal.ipw_fit(dataset, weight, propensity),
                "balancing": clusterbal.balancing_fit(dataset, structure, weight),
                "projection": clusterbal.projection_fit(dataset, structure, weight, propensity),
            }
            pts = {e: f.point for e, f in fits.items()}
            for e in self.estimators:
                points[e].append(pts[e])
            w_ipw = checks.ipw_weights(dataset, cfg.kappa)
            out.append(close(op, "IPW weights = f(A)/(M e(A)) from ndtr",
                             fits["ipw"].weights.values, w_ipw, checks.EXACT_RTOL))
            found, _ = design_fit_checks(
                op, dataset, *observed_system(structure, dataset), pts, w_ipw,
                fits["balancing"].weights.values, fits["projection"].weights.values,
                fits["balancing"].feasible,
            )
            out.extend(found)
        for e in self.estimators:
            m = result.metrics[e]
            bias = float(np.mean(points[e]) - result.true_mu)
            out.append(verdict(
                "mc_summary", f"{e}: bias = mean of regenerated points - true_mu, no errors",
                abs(m["bias"] - bias) <= 1e-12 * max(1.0, abs(bias))
                and m["n_used"] == ROUND_REPS and m["errors"] == 0,
                f"bias {m['bias']!r} vs {bias!r}, n_used {m['n_used']}, errors {m['errors']}",
            ))
        out.append(self._truth_dual_route(cfg))
        return out

    def _truth_dual_route(self, cfg):
        """The closed-form truth integrand against structure.expected_rows @ h.

        A fixed batch of clusters, the same for every seed, through both
        routes: true_mu averages `_expected_signal_from_x`, which must equal
        the unit mean of the DGP structure's expected rows times dgp_h.
        """
        from clusterbal.core import probit_mean_probs

        rng = np.random.default_rng(20240817)
        chol = np.linalg.cholesky(cfg.rho ** np.abs(np.subtract.outer(np.arange(cfg.p), np.arange(cfg.p))))
        structure = simulate.dgp_structure(cfg)
        h = simulate.dgp_h(cfg, cfg.gamma)
        closed, lib = [], []
        for m, _ in cfg.cluster_sizes:
            x = rng.standard_normal((16, m, cfg.p)) @ chol.T
            closed.extend(simulate._expected_signal_from_x(cfg, cfg.gamma, x))
            for b in range(x.shape[0]):
                c = ClusterSample(covariates=x[b], treatments=np.zeros(m, np.int8), outcomes=np.zeros(m))
                lib.append(float((structure.expected_rows(c, probit_mean_probs(c, cfg.kappa)) @ h).mean()))
        gap = checks.rel_err(closed, lib)
        return verdict(
            "truth", "truth dual route: _expected_signal_from_x = mean(expected_rows @ h)",
            gap <= 1e-10, f"relative gap {gap:.3g} over 32 fixed clusters",
            TRUTH_FAULT if self.interference.startswith("knn") else None,
        )


# ---------- applied analysis through the CLI ----------


class Analysis:
    """`clusterbal estimate | balance-report | select` on a 3000-cluster CSV."""

    ops = ("estimate", "balance_report", "select")
    n_clusters = 3000

    def setup(self, seed, workdir):
        cfg = simulate.DGPConfig(n=self.n_clusters, interference="knn5", seed=seed)
        dataset, _, _, _ = simulate.gen_dataset(cfg, 0, truth=False)
        dataset = Dataset(clusters=tuple(
            ClusterSample(covariates=c.covariates, treatments=c.treatments,
                          outcomes=c.outcomes, cluster_id=f"c{i}")
            for i, c in enumerate(dataset.clusters)
        ))
        os.makedirs(workdir, exist_ok=True)
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        with open(path("data.csv"), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["cluster_id", "unit_id", "treatment", "outcome", "x1", "x2", "x3", "x4"])
            for c in dataset.clusters:
                for i in range(c.size):
                    writer.writerow([c.cluster_id, i, int(c.treatments[i]), repr(float(c.outcomes[i]))]
                                    + [repr(float(v)) for v in c.covariates[i]])
        ladder = [{"kind": "tensor", "inner": {"kind": "knn_pattern", "k": k}, "columns": DGP_COLUMNS}
                  for k in range(1, 6)]
        specs = {
            "policy.json": {"kind": "bernoulli", "family": "probit_mean", "kappa": KAPPA},
            "propensity.json": {"kind": "bernoulli", "family": "probit_mean", "kappa": 0.0},
            "structure.json": ladder[-1],
            "ladder.json": ladder,
        }
        for name, doc in specs.items():
            with open(path(name), "w") as fh:
                json.dump(doc, fh)
        common = ["--dataset", path("data.csv"), "--policy", path("policy.json"),
                  "--seed", "0", "--out-dir", path("out")]
        commands = {
            "estimate": ["estimate", *common, "--propensity", path("propensity.json"),
                         "--structure", path("structure.json"),
                         "--estimator", "ipw", "--estimator", "balancing", "--estimator", "projection"],
            "balance_report": ["balance-report", *common, "--structure", path("structure.json")],
            "select": ["select", *common, "--candidates", path("ladder.json")],
        }
        artifacts = {"estimate": "estimates", "balance_report": "balance_report", "select": "selection"}
        return {"dataset": dataset, "specs": specs, "commands": commands,
                "artifacts": {op: path(os.path.join("out", a)) for op, a in artifacts.items()}}

    def once(self, state):
        return {}

    def round(self, state, tracer):
        times, out = {}, {}
        for op, argv in state["commands"].items():
            times[op], code = timed(tracer, op, cli.run, argv)
            base = state["artifacts"][op]
            with open(base + ".json") as fh:
                doc = json.load(fh)["result"]
            with open(base + ".csv") as fh:
                text = fh.read()
            out[op] = {"code": code, "result": doc, "csv": text}
        return times, out

    def differs(self, first, out):
        key = lambda o: (o["code"], json.dumps(o["result"], sort_keys=True), o["csv"])  # noqa: E731
        return {op for op in self.ops if key(first[op]) != key(out[op])}

    def metrics(self, once, rounds):
        est, bal, sel = (fmean(r[op] for r in rounds) for op in self.ops)
        named = {"estimate_s": (est, "s"), "balance_report_s": (bal, "s"), "select_s": (sel, "s")}
        return named, {"op1_s": est, "op2_s": bal, "op3_s": sel}

    def verify(self, state, out):
        dataset = state["dataset"]
        y = np.concatenate([c.outcomes for c in dataset.clusters])
        systems = [observed_system(build_structure(spec, dataset), dataset)
                   for spec in state["specs"]["ladder.json"]]
        phi, t = systems[-1]  # the ladder's last rung is the estimate/balance-report structure
        res = {op: o["result"] for op, o in out.items()}
        found = [verdict(op, "exit code 0", out[op]["code"] == 0, f"exit code {out[op]['code']}")
                 for op in self.ops]

        est = res["estimate"]
        w_ipw = checks.ipw_weights(dataset, KAPPA)
        points = {e: est[e]["point"] for e in ("ipw", "balancing", "projection")}
        found.append(close("estimate", "IPW weights = f(A)/(M e(A)) from ndtr",
                           est["ipw"]["weights"], w_ipw, checks.EXACT_RTOL))
        found.append(close("estimate", "IPW sigma2 = sample variance of cluster sums",
                           est["ipw"]["variance"]["sigma2_hat"],
                           checks.iid_sigma2(dataset, np.asarray(est["ipw"]["weights"]))))
        design, w_ref = design_fit_checks(
            "estimate", dataset, phi, t, points, w_ipw, np.asarray(est["balancing"]["weights"]),
            np.asarray(est["projection"]["weights"]), est["balancing"]["feasible"],
        )
        found.extend(design)
        found.append(self._estimates_csv_round_trip(out["estimate"]["csv"], est))

        rep = res["balance_report"]
        nu_ref = (phi.T @ w_ref - t) / dataset.n
        gap = float(np.max(np.abs(np.asarray(rep["nu"]) - nu_ref)))
        scale = max(1.0, float(np.max(np.abs(t))) / dataset.n)
        found.append(verdict("balance_report", "nu = (phi^T w - t)/n with lstsq w",
                             gap <= 1e-10 * scale, f"max gap {gap:.3g}"))
        found.append(close("balance_report", "point = balancing point",
                           rep["point"], points["balancing"], checks.EXACT_RTOL))
        found.append(self._balance_csv_round_trip(out["balance_report"]["csv"], rep))

        found.extend(self._select_checks(systems, res["select"], y))
        return found

    @staticmethod
    def _estimates_csv_round_trip(text, est):
        bad = []
        for row in csv.DictReader(text.splitlines()):
            doc = est[row["estimator"]]
            var = doc.get("variance", {})
            expected = {"point": doc["point"], "sigma2_hat": var.get("sigma2_hat"),
                        "ci_low": var.get("ci_low"), "ci_high": var.get("ci_high"),
                        "level": var.get("level")}
            for col, want in expected.items():
                try:
                    ok = float(row[col]) == float(want)
                except (TypeError, ValueError):
                    ok = False
                if not ok:
                    bad.append(f"{row['estimator']}.{col}={row[col]!r}")
        return verdict("estimate", "artifact round-trip: estimates.csv cells = estimates.json floats",
                       not bad, "; ".join(bad[:3]) or "all cells parse", CSV_FAULT)

    @staticmethod
    def _balance_csv_round_trip(text, rep):
        nu = np.asarray(rep["nu"])
        sigma = np.asarray(rep["sigma_scale"])
        width = sigma.shape[0]
        bad = 0
        for row in csv.DictReader(text.splitlines()):
            t, j = int(row["covariate"]), int(row["effective_treatment"])
            try:
                ok = float(row["nu"]) == nu[j * width + t] and float(row["sigma"]) == sigma[t, j]
            except ValueError:
                ok = False
            bad += not ok
        return verdict("balance_report", "artifact round-trip: balance_report.csv = json",
                       bad == 0, f"{bad} bad rows")

    @staticmethod
    def _select_checks(systems, sel, y):
        """Chi-square structure test statistics recomputed from lstsq weights."""
        weights = [checks.min_norm_rows(phi, t)[0] for phi, t in systems]
        fitted, rank = checks.colspace_projection(systems[-1][0], y)
        resid = y - fitted
        sigma = float(np.sqrt(resid @ resid / (y.size - rank)))
        stats = []
        for w in weights[:-1]:
            delta = w - weights[-1]
            stats.append(float((delta @ y / (sigma * np.linalg.norm(delta))) ** 2))
        threshold = chi2.ppf(1.0 - sel["alpha"], df=1)
        chosen = next((l for l, s in enumerate(stats) if s < threshold), len(systems) - 1)
        return [
            close("select", "sigma_hat from the reference residual", sel["sigma_hat"], sigma),
            close("select", "statistics from lstsq weight contrasts", sel["statistics"], stats, 1e-6),
            close("select", "p-values = chi2(1) tail", sel["p_values"], chi2.sf(stats, df=1), 1e-6),
            verdict("select", "chosen = first candidate below the chi2 threshold",
                    sel["chosen"] == chosen, f"chosen {sel['chosen']} vs {chosen}"),
        ]


# ---------- weighted projection on small clusters ----------


class WeightedProjection:
    """weighted_projection_fit (one-hot and additive) and exposure_collapsed_ipw."""

    ops = ("wproj_onehot", "wproj_additive", "exposure_ipw")
    sizes = (8, 10)  # twelve clusters of each, so the 2^m work is the same for every seed
    per_size = 12
    gamma = 0.01  # signal scale; near the fig1 calibration, it only sets outcome scale

    def setup(self, seed, workdir):
        clusters = []
        for idx, m in enumerate(self.sizes):
            cfg = simulate.DGPConfig(n=self.per_size, interference="knn5", cluster_sizes=((m, 1.0),),
                                     gamma=self.gamma, seed=seed)
            part, _, _, _ = simulate.gen_dataset(cfg, idx, truth=False)
            clusters.extend(part.clusters)
        dataset = Dataset(clusters=tuple(
            ClusterSample(covariates=c.covariates, treatments=c.treatments,
                          outcomes=c.outcomes, cluster_id=i)
            for i, c in enumerate(clusters)
        ))
        return {
            "dataset": dataset,
            "onehot": TensorWithCovariates(KnnPattern(5), columns=DGP_COLUMNS),
            "additive": TensorWithCovariates(AdditiveTypes(max(self.sizes)), columns=DGP_COLUMNS),
            "mapping": NeighborPattern(5),
            "weight": probit_intervention(KAPPA),
            "propensity": probit_propensity(0.0),
        }

    def once(self, state):
        return {}

    @staticmethod
    def _wproj(dataset, structure, weight, propensity):
        fit = clusterbal.weighted_projection_fit(dataset, structure, weight, propensity)
        var = clusterbal.sandwich_variance(dataset, structure, weight, fit, "wproj", propensity=propensity)
        return fit.weights.values, fit.point, var.sigma2_hat

    @staticmethod
    def _exposure(dataset, mapping, weight, propensity):
        fit = clusterbal.exposure_collapsed_ipw(dataset, mapping, weight, propensity)
        return fit.weights.values, fit.point, None

    def round(self, state, tracer):
        """Each operation starts from a copy of the dataset with cold caches."""
        s = state
        times, out = {}, {}
        calls = {
            "wproj_onehot": (self._wproj, s["onehot"]),
            "wproj_additive": (self._wproj, s["additive"]),
            "exposure_ipw": (self._exposure, s["mapping"]),
        }
        for op, (fn, structure) in calls.items():
            dataset = fresh(s["dataset"])
            times[op], out[op] = timed(tracer, op, fn, dataset, structure, s["weight"], s["propensity"])
        return times, out

    def differs(self, first, out):
        return {op for op in self.ops
                if not (np.array_equal(first[op][0], out[op][0]) and first[op][1:] == out[op][1:])}

    def metrics(self, once, rounds):
        onehot, additive, expo = (fmean(r[op] for r in rounds) for op in self.ops)
        named = {"wproj_s": (onehot, "s"), "wproj_additive_s": (additive, "s"),
                 "exposure_ipw_s": (expo, "s")}
        return named, {"op1_s": onehot, "op2_s": additive, "op3_s": expo}

    def verify(self, state, out):
        dataset = state["dataset"]
        y = np.concatenate([c.outcomes for c in dataset.clusters])
        n = dataset.n
        w_expo_ref = checks.neighbor_pattern_ipw(dataset, 5, KAPPA)
        additive = state["additive"]
        w_add_ref = checks.weighted_projection(
            fresh(dataset), lambda c, i: additive.all_pattern_rows(c, i), KAPPA)
        w1, p1, s1 = out["wproj_onehot"]
        w2, p2, s2 = out["wproj_additive"]
        w3, p3, _ = out["exposure_ipw"]
        gap = float(np.max(np.abs(w1 - w3)))
        return [
            close("exposure_ipw", "weights = f_class/(M e_class) from brute-force k-NN and ndtr",
                  w3, w_expo_ref, checks.EXACT_RTOL),
            close("exposure_ipw", "point = w . y / n", p3, w3 @ y / n, checks.EXACT_RTOL),
            verdict("wproj_onehot", "one-hot wproj weights = exposure-class IPW weights",
                    gap <= 1e-12, f"max gap {gap:.3g}"),
            close("wproj_onehot", "point = w . y / n", p1, w1 @ y / n, checks.EXACT_RTOL),
            close("wproj_onehot", "sigma2 = sample variance of cluster sums",
                  s1, checks.iid_sigma2(dataset, w1), checks.EXACT_RTOL),
            close("wproj_additive", "weights = lstsq e-weighted projection per unit", w2, w_add_ref),
            close("wproj_additive", "point = w . y / n", p2, w2 @ y / n, checks.EXACT_RTOL),
            close("wproj_additive", "sigma2 = sample variance of cluster sums",
                  s2, checks.iid_sigma2(dataset, w2), checks.EXACT_RTOL),
        ]


WORKLOADS = {
    "sim-knn5": Simulation("knn5"),
    "sim-additive": Simulation("additive"),
    "analysis-n3000": Analysis(),
    "wproj-small": WeightedProjection(),
}
