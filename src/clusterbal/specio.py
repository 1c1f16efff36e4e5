"""JSON spec documents for counterfactual weights and propensity models.

Every document carries a "kind" discriminator; the schemas are documented in
docs/formats.md. Structure documents are handled by structures.build_structure.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BernoulliIntervention,
    DeterministicTarget,
    DirectEffect,
    Gate,
    IndependentBernoulli,
    JointTable,
    RandomSelection,
    SparseTable,
    UnknownPropensity,
    probit_intervention,
    probit_propensity,
    uniform_intervention,
)
from .errors import InvalidSpec


def spec_field(doc, key, what):
    """doc[key]; InvalidSpec naming the field when the `what` spec lacks it."""
    try:
        return doc[key]
    except (KeyError, TypeError):
        raise InvalidSpec(f"{what} spec is missing required field {key!r}") from None


def _whole(value):
    """True when value is a whole number, and not a bool."""
    try:
        return not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def finite_number(value):
    """True when value is a finite real number, and not a bool."""
    try:
        return not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def spec_int(doc, key, what):
    """spec_field(doc, key, what) as an int; InvalidSpec naming the field otherwise."""
    value = spec_field(doc, key, what)
    if not _whole(value):
        raise InvalidSpec(f"{what} spec field {key!r} must be an integer, got {value!r}")
    return int(value)


def spec_bool(doc, key, what):
    """doc[key], true or false (false when absent); InvalidSpec naming the field otherwise."""
    value = doc.get(key, False)
    if not isinstance(value, bool):
        raise InvalidSpec(f"{what} spec field {key!r} must be true or false, got {value!r}")
    return value


def spec_float(doc, key, what, default=None):
    """doc[key] as a finite float, or `default` when given and the key is
    absent; InvalidSpec naming the field when the value is not a finite number."""
    value = doc.get(key, default) if default is not None else spec_field(doc, key, what)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise InvalidSpec(f"{what} spec field {key!r} must be a finite number, got {value!r}")
    return number


def _unit_lists(value, key):
    """A deterministic weight's `units` (a list of whole numbers) or
    `units_by_cluster` (an object of such lists) as ints; InvalidSpec naming
    the field otherwise."""
    by_cluster = value if key == "units_by_cluster" else {0: value}
    if isinstance(by_cluster, dict) and all(
        isinstance(v, list) and all(map(_whole, v)) for v in by_cluster.values()
    ):
        lists = {k: [int(u) for u in v] for k, v in by_cluster.items()}
        return lists if key == "units_by_cluster" else lists[0]
    shape = "an object of lists" if key == "units_by_cluster" else "a list"
    raise InvalidSpec(
        f"deterministic weight spec field {key!r} must be {shape} of integers, got {value!r}"
    )


def _bernoulli_probs_fn(doc):
    if "prob" in doc:
        prob = spec_float(doc, "prob", "bernoulli")
        return lambda c: np.full(c.size, prob)
    raise InvalidSpec("bernoulli spec needs 'prob' or family 'probit_mean'")


def _rank_selector(column, count, largest=True):
    def select(cluster):
        vals = cluster.covariates[:, column]
        order = np.argsort(-vals if largest else vals, kind="stable")
        return order[: min(count, cluster.size)].tolist()

    return select


def weight_from_json(doc):
    """Counterfactual weight from a JSON spec document."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidSpec("weight spec must be a dict with a 'kind' key")
    kind = doc["kind"]
    if kind == "gate":
        return Gate()
    if kind == "uniform":
        return uniform_intervention()
    if kind == "bernoulli":
        if doc.get("family") == "probit_mean":
            return probit_intervention(spec_float(doc, "kappa", "bernoulli weight", default=0.0))
        return BernoulliIntervention(_bernoulli_probs_fn(doc))
    if kind == "random_selection":
        return RandomSelection(spec_int(doc, "count", "random_selection weight"))
    if kind == "deterministic":
        for key in ("units", "units_by_cluster"):
            if key in doc:
                return DeterministicTarget(_unit_lists(doc[key], key))
        if "rank_column" in doc:
            return DeterministicTarget(
                _rank_selector(
                    spec_int(doc, "rank_column", "deterministic weight"),
                    spec_int(doc, "count", "deterministic weight"),
                    largest=bool(doc.get("largest", True)),
                )
            )
        raise InvalidSpec("deterministic spec needs units, units_by_cluster, or rank_column")
    if kind == "sparse":
        entries = {}
        for row in spec_field(doc, "entries", "sparse weight"):
            entries.setdefault(spec_field(row, "cluster_id", "sparse weight entry"), []).append(
                (
                    spec_field(row, "pattern", "sparse weight entry"),
                    spec_float(row, "weight", "sparse weight entry"),
                )
            )
        return SparseTable(entries)
    if kind == "direct_effect":
        return DirectEffect(weight_from_json(spec_field(doc, "base", "direct_effect weight")))
    raise InvalidSpec(f"unknown weight kind {kind!r}")


def propensity_from_json(doc):
    """Propensity model from a JSON spec document (or the string 'unknown')."""
    if doc == "unknown":
        return UnknownPropensity()
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidSpec("propensity spec must be a dict with a 'kind' key")
    kind = doc["kind"]
    if kind == "unknown":
        return UnknownPropensity()
    if kind == "bernoulli":
        if doc.get("family") == "probit_mean":
            return probit_propensity(spec_float(doc, "kappa", "bernoulli propensity", default=0.0))
        return IndependentBernoulli(_bernoulli_probs_fn(doc))
    if kind == "joint_table":
        tables = spec_field(doc, "tables", "joint_table propensity")
        if not isinstance(tables, dict) or not all(isinstance(t, dict) for t in tables.values()):
            raise InvalidSpec("joint_table spec field 'tables' must map cluster ids to objects")
        for table in tables.values():
            for key in table:
                if not isinstance(key, str) or not key or set(key) - {"0", "1"}:
                    raise InvalidSpec(f"joint_table key {key!r} is not a string of 0/1 bits")
        return JointTable({
            cid: {tuple(int(ch) for ch in key): spec_float(table, key, "joint_table propensity")
                  for key in table}
            for cid, table in tables.items()
        })
    raise InvalidSpec(f"unknown propensity kind {kind!r}")
