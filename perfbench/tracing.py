"""Per-layer tracing of clusterbal from outside the package.

`Tracer.install()` replaces the public functions and methods of each layer
with wrappers that record a span per call; `uninstall()` puts the originals
back. A function is replaced under every module attribute that is bound to
it (``clusterbal.estimators.balancing_fit`` and the names ``simulate`` and
``cli`` imported from it), so calls route through the wrapper whichever
module makes them. Nothing under ``src/`` is changed.

A call made while a span of the same layer is open is not recorded again:
the outer span already covers it (``TensorWithCovariates.expected_rows``
calling its inner encoding's ``expected_rows``, say). A layer's self time is
its span time minus the time of the spans opened inside it.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np


def svd_flops(m, n, vectors=True):
    """Floating-point operations of a thin SVD of an m x n matrix (computed).

    Golub & Van Loan, Matrix Computations, table 8.6.1: R-SVD with U1 and V
    costs 6mn^2 + 20n^3 for m >= n; singular values alone cost
    4mn^2 - 4n^3/3.
    """
    m, n = max(m, n), min(m, n)
    if vectors:
        return 6.0 * m * n * n + 20.0 * n**3
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._open_names = set()
        self._patches = []

    # ---------- recording ----------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name` (used for the benchmark's own ops)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, name)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open_names.add(name)
        return idx

    def _close(self, idx, name):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._open_names.discard(name)

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in tracer._open_names:
                return fn(*args, **kwargs)
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, layer)
            if counter is not None:
                for name, amount in counter(args, kwargs, result).items():
                    tracer.count(name, amount)
            return result

        return wrapper

    # ---------- installation ----------

    def install(self):
        """Wrap every layer listed in `_layers`; `uninstall` restores the originals."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "clusterbal" or name.startswith("clusterbal."))
        ]
        for layer, owner, attr, counter in _layers():
            original = owner.__dict__[attr]
            wrapped = self._wrap(layer, original, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------- aggregation ----------

    def layer_times(self):
        """{name: (inclusive seconds, self seconds, calls)} over every span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            incl, self_t, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (incl + end - start, self_t + end - start - child[idx], calls + 1)
        return out


def _classes_defining(module, base, attrs):
    """(class, attr) for each subclass of `base` in `module` defining one of attrs."""
    out = []
    for obj in vars(module).values():
        if isinstance(obj, type) and issubclass(obj, base):
            out.extend((obj, a) for a in attrs if a in obj.__dict__)
    return out


def _layers():
    """(layer, owner, attribute, counter) for every traced entry point.

    `owner` is a module (the function is replaced wherever it is bound) or a
    class (the method is replaced on that class). A counter maps
    (args, kwargs, result) to {count name: amount}.
    """
    from clusterbal import _kernels, cli, core, diagnostics, estimators, inference
    from clusterbal import numerics, simulate, structures

    def design_ops_count(args, kwargs, result):
        m, n = args[0].phi.shape
        return {"numerics.design_ops_calls": 1, "numerics.svd_flops": svd_flops(m, n)}

    def colspace_count(args, kwargs, result):
        m, n = np.shape(args[0])
        return {"numerics.project_colspace_calls": 1, "numerics.svd_flops": svd_flops(m, n)}

    def nested_count(args, kwargs, result):
        small, large, dataset = args[:3]
        c0 = dataset.clusters[0]
        rows, d_s, d_l = dataset.total_units, small.dim(c0), large.dim(c0)
        flops = svd_flops(rows, d_s + d_l, False) + svd_flops(rows, d_l, False)
        return {"numerics.svd_flops": flops}

    def artifact_count(args, kwargs, result):
        path = args[0]
        size = os.path.getsize(path)
        if os.path.exists(path + ".manifest.json"):
            size += os.path.getsize(path + ".manifest.json")
        return {"cli.artifact_bytes": size}

    def calls(name):
        return lambda args, kwargs, result: {name: 1}

    layers = [
        ("simulate.gen_dataset", simulate, "gen_dataset",
         lambda a, k, r: {"simulate.clusters_drawn": r[0].n}),
        ("simulate.calibrate_snr", simulate, "calibrate_snr", None),
        ("structures.design_matrix", structures, "design_matrix",
         calls("structures.design_matrix_calls")),
        ("structures.target_contributions", structures, "target_contributions", None),
        ("structures.nested_rank_check", structures, "nested_rank_check", nested_count),
        ("numerics.design_ops", numerics.DesignOps, "__init__", design_ops_count),
        ("numerics.project_colspace", numerics, "project_colspace", colspace_count),
        ("estimators.build_design", estimators, "build_design",
         calls("estimators.build_design_calls")),
        ("estimators.ipw_fit", estimators, "ipw_fit", None),
        ("estimators.balancing_fit", estimators, "balancing_fit", calls("estimators.design_fits")),
        ("estimators.projection_fit", estimators, "projection_fit", calls("estimators.design_fits")),
        ("estimators.weighted_projection_fit", estimators, "weighted_projection_fit", None),
        ("estimators.exposure_collapsed_ipw", estimators, "exposure_collapsed_ipw", None),
        ("inference.sandwich_variance", inference, "sandwich_variance", None),
        ("inference.iid_cluster_variance", inference, "iid_cluster_variance", None),
        ("inference.select_structure", inference, "select_structure", None),
        ("inference.sigma_noise_hat", inference, "sigma_noise_hat", None),
        ("diagnostics.imbalance_report", diagnostics, "imbalance_report", None),
        ("cli.load_dataset", cli, "load_dataset", None),
        ("cli.write_artifacts", cli, "write_json_artifact", artifact_count),
        ("cli.write_artifacts", cli, "write_csv_artifact", artifact_count),
        ("core.propensity_eval", core, "eval_propensity", None),
    ]
    for name in ("min_norm_row_solve", "ols_coefficients", "project"):
        layers.append(("numerics.solve", numerics.DesignOps, name, None))
    for cls, attr in _classes_defining(
        structures, structures.LowRankStructure, ("all_pattern_rows",)
    ):
        layers.append((
            "structures.all_pattern_rows", cls, attr,
            lambda a, k, r: {"structures.pattern_rows": r.shape[0]},
        ))
    for cls, attr in _classes_defining(
        structures, structures.LowRankStructure, ("expected_rows",)
    ):
        layers.append(("structures.expected_rows", cls, attr, None))
    for cls, attr in _classes_defining(
        core, core.CounterfactualWeight, ("support", "weights_for")
    ):
        layers.append(("core.weight_support", cls, attr, None))
    for cls, attr in _classes_defining(
        core, core.PropensityModel, ("probability", "probabilities_for", "unit_probs")
    ):
        layers.append(("core.propensity_eval", cls, attr, None))
    for name in _kernels.IMPLS["numpy"]:
        layers.append(("kernels", _kernels, name, calls("kernels.calls")))
    return layers
