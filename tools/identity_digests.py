"""Print one `name sha256` line per output of a fixed set of computations.

Run it on two checkouts and `diff` the outputs: equal lines mean the two
trees give byte-identical results. The script pins one BLAS thread before
numpy is imported, since the numbers depend on the BLAS thread count, and
imports `clusterbal` from the `src/` next to it, so the checkout it lives
in is the one measured:

    python3 tools/identity_digests.py > new.txt
    python3 ../parent/tools/identity_digests.py > old.txt   # or a copy of this file
    diff old.txt new.txt

The structure outputs include the balancing and projection weights and
their sandwich variances, which pin the design decomposition of every
structure kind. The digests depend on the BLAS build, so compare runs on
one machine only.
It takes a few seconds; most of it is the `monte_carlo` runs and the three
commands on the 3,000-cluster analysis data, which are the benchmark's
`analysis-n3000` inputs (seed 2102).
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from clusterbal import cli  # noqa: E402
from clusterbal.core import (  # noqa: E402
    ClusterSample,
    Dataset,
    JointTable,
    enumerate_patterns,
    probit_intervention,
    probit_propensity,
)
from clusterbal.estimators import (  # noqa: E402
    balancing_fit,
    build_design,
    projection_fit,
    weighted_projection_fit,
)
from clusterbal.inference import sandwich_variance  # noqa: E402
from clusterbal.simulate import DGPConfig, monte_carlo  # noqa: E402
from clusterbal.structures import (  # noqa: E402
    AdditiveTypes,
    CoarsenedCount,
    Compose,
    KnnPattern,
    NoInterference,
    StratifiedCount,
    TensorWithCovariates,
    _GroupRows,
    _size_groups,
    design_matrix,
    target_contributions,
)

ESTIMATORS = ("ipw", "balancing", "projection", "wproj", "exposure-ipw")


def emit(name, data):
    if isinstance(data, np.ndarray):
        data = f"{data.dtype} {data.shape} ".encode() + np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    print(name, hashlib.sha256(data).hexdigest(), flush=True)


def simulations():
    for kind in ("knn2", "knn5", "stratified5", "additive"):
        res = monte_carlo(DGPConfig(n=60, interference=kind, seed=3), 4,
                          estimators=ESTIMATORS, truth_draws=20000)
        emit(f"monte_carlo.{kind}", repr((res.metrics, res.true_mu, res.error_classes)))


def typed_dataset():
    """Three clusters of each size 1-6. Column 0 holds distinct types in
    1..6, so every type is absent from some clusters of sizes below 6."""
    rng = np.random.default_rng(2202)
    clusters = []
    for m in range(1, 7):
        for _ in range(3):
            types = rng.permutation(6)[:m] + 1
            x = np.column_stack([types, rng.standard_normal((m, 2))])
            clusters.append(ClusterSample(covariates=x, treatments=rng.integers(0, 2, m),
                                          outcomes=rng.standard_normal(m),
                                          cluster_id=len(clusters)))
    return Dataset(clusters=tuple(clusters))


def joint_table(dataset):
    rng = np.random.default_rng(2203)
    tables = {}
    for c in dataset.clusters:
        bits = enumerate_patterns(c.size)
        p = rng.uniform(0.5, 1.5, bits.shape[0])
        tables[c.cluster_id] = {tuple(b): v for b, v in zip(bits.tolist(), p / p.sum())}
    return JointTable(tables)


def structures():
    """Every structure kind; the covariate tensors over several blocks take
    `_wproj_svd` under the joint table."""
    additive = AdditiveTypes(6)
    columns = [1, {"cluster_mean": 2}]
    return {
        "additive6": additive,
        "additive_column": AdditiveTypes(6, type_source={"column": 0}),
        "additive_tensor": TensorWithCovariates(additive, columns=columns),
        "coarsened1": CoarsenedCount(order=1, thresholds=(0, 1), k=2),
        "coarsened2": CoarsenedCount(order=2, thresholds=(0, 1), k=2),
        "no_interference": NoInterference(),
        "stratified2_own": StratifiedCount(2, include_own=True),
        "knn2": KnnPattern(2),
        "compose_additive_knn": Compose(AdditiveTypes(3), KnnPattern(2)),
        "compose_additive_own": Compose(AdditiveTypes(2), NoInterference()),
        "compose_knn_own": Compose(KnnPattern(2), NoInterference()),
        "compose_knn_nested": Compose(KnnPattern(1), Compose(KnnPattern(2), KnnPattern(3))),
        "coarsened2_tensor": TensorWithCovariates(
            CoarsenedCount(order=2, thresholds=(0, 1), k=2), columns=columns),
        "compose_additive_knn_tensor": TensorWithCovariates(
            Compose(AdditiveTypes(3), KnnPattern(2)), columns=columns),
    }


def structure_outputs():
    dataset = typed_dataset()
    weight = probit_intervention(0.4)
    laws = {"probit": probit_propensity(0.0), "joint": joint_table(dataset)}
    for name, structure in structures().items():
        for group, _, _ in _size_groups(dataset):
            layout = _GroupRows(structure, group)
            m = group[0].size
            for b, cls in enumerate(layout.classes()):
                emit(f"{name}.m{m}.block{b}.classes", cls)
            for law_name, law in laws.items():
                masses = layout.masses(law.probs_batch(group), law)
                for b, mass in enumerate(masses):
                    emit(f"{name}.m{m}.block{b}.masses.{law_name}", mass)
        emit(f"{name}.design", design_matrix(structure, dataset))
        emit(f"{name}.target", target_contributions(structure, dataset, weight))
        for law_name, law in laws.items():
            fit = weighted_projection_fit(dataset, structure, weight, law)
            emit(f"{name}.wproj.{law_name}", fit.weights.values)
        design_outputs(name, structure, dataset, weight, laws)


def design_outputs(name, structure, dataset, weight, laws):
    """The balancing and projection weights on the structure's design, and
    their sandwich variances (sigma2, CI ends), the projection's under each
    law; the balancing variance is taken for infeasible fits too."""
    design = build_design(structure, dataset, weight)
    fit = balancing_fit(dataset, structure, weight, design=design)
    emit(f"{name}.balancing", fit.weights.values)
    var = sandwich_variance(dataset, structure, weight, fit, "bal", allow_infeasible=True)
    emit(f"{name}.balancing.sandwich", np.array([var.sigma2_hat, var.ci_low, var.ci_high]))
    for law_name, law in laws.items():
        fit = projection_fit(dataset, structure, weight, law, design=design)
        emit(f"{name}.projection.{law_name}", fit.weights.values)
        var = sandwich_variance(dataset, structure, weight, fit, "proj", propensity=law)
        emit(f"{name}.projection.{law_name}.sandwich",
             np.array([var.sigma2_hat, var.ci_low, var.ci_high]))


def analysis_outputs():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        state = workloads.Analysis().setup(2102, workdir)
        for op, argv in state["commands"].items():
            code = cli.run(argv)
            base = state["artifacts"][op]
            with open(base + ".json") as fh:
                emit(f"{op}.json", json.load(fh)["manifest"]["output_digest"] + f" exit {code}")
            with open(base + ".csv.manifest.json") as fh:
                emit(f"{op}.csv", json.load(fh)["output_digest"])


if __name__ == "__main__":
    structure_outputs()
    simulations()
    analysis_outputs()
