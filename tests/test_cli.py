import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from clusterbal import simulate
from clusterbal.cli import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    RunManifest,
    _config_from_file,
    load_dataset,
    run,
    write_dataset,
    write_json_artifact,
)
from clusterbal.core import ClusterSample, Dataset
from clusterbal.errors import InvalidSpec, ParseError
from clusterbal.inference import ESTIMATORS
from clusterbal.specio import propensity_from_json, weight_from_json
from clusterbal.structures import build_structure, exposure_from_spec

from conftest import make_dataset

CSV_6ROWS = """cluster_id,unit_id,treatment,outcome,x1,x2
a,0,1,1.5,0.1,0.2
a,1,0,2.5,0.3,0.4
a,2,1,0.5,0.5,0.6
b,0,0,1.0,0.7,0.8
b,1,1,2.0,0.9,1.0
b,2,0,3.0,1.1,1.2
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_json(tmp_path, name, doc):
    return write(tmp_path, name, json.dumps(doc))


# ---------- load_dataset ----------


def test_load_csv_dataset(tmp_path):
    d = load_dataset(write(tmp_path, "d.csv", CSV_6ROWS))
    assert d.n == 2
    assert d.total_units == 6
    assert d.clusters[0].cluster_id == "a"
    assert d.clusters[0].treatments.tolist() == [1, 0, 1]
    assert d.clusters[1].outcomes.tolist() == [1.0, 2.0, 3.0]


def test_load_csv_bad_treatment(tmp_path):
    bad = CSV_6ROWS.replace("b,0,0,1.0", "b,0,2,1.0")
    with pytest.raises(ParseError) as err:
        load_dataset(write(tmp_path, "d.csv", bad))
    assert err.value.row == 4
    assert err.value.column == "treatment"


def test_load_csv_empty(tmp_path):
    with pytest.raises(ParseError, match="no rows"):
        load_dataset(write(tmp_path, "d.csv", ""))
    with pytest.raises(ParseError, match="no rows"):
        load_dataset(write(tmp_path, "h.csv", "cluster_id,unit_id,treatment,outcome,x1\n"))


def test_load_csv_orders_units_within_cluster(tmp_path):
    scrambled = (
        "cluster_id,unit_id,treatment,outcome,x1\n"
        "a,2,1,3.0,0.3\n"
        "a,0,0,1.0,0.1\n"
        "a,1,1,2.0,0.2\n"
    )
    d = load_dataset(write(tmp_path, "d.csv", scrambled))
    assert d.clusters[0].outcomes.tolist() == [1.0, 2.0, 3.0]


def assert_same_dataset(got, want):
    """The same cluster ids in the same order, equal arrays of equal dtypes,
    and C-contiguous covariates."""
    assert [c.cluster_id for c in got.clusters] == [c.cluster_id for c in want.clusters]
    for g, w in zip(got.clusters, want.clusters):
        for key in ("covariates", "treatments", "outcomes"):
            a, b = getattr(g, key), getattr(w, key)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert g.covariates.flags.c_contiguous


def test_roundtrip_csv_and_json(tmp_path, rng):
    d = make_dataset(rng, 3, sizes=(2, 4), p=3)
    # cluster ids out of sorted order: clusters come back in file order
    d = Dataset(clusters=tuple(
        dataclasses.replace(c, cluster_id=f"c{9 - i}") for i, c in enumerate(d.clusters)
    ))
    for name in ("out.csv", "out.json"):
        path = str(tmp_path / name)
        write_dataset(d, path)
        assert_same_dataset(load_dataset(path), d)


def test_load_csv_interleaved_clusters_padding_and_quoting(tmp_path):
    """Clusters interleaved across the file keep their order of first
    appearance; units sort by unit_id within a cluster; cells may be padded
    with whitespace (all that str.strip drops), numbers follow Python's float
    (so `1_0` is 10), and a quoted cluster_id may hold a comma."""
    text = (
        "cluster_id,unit_id,treatment,outcome,x2,x1\n"
        'b, 2 ,1,0.25,20,2\n'
        '"a,z",1_0,0, 1.5 ,-1,-10\n'
        'b,0,0,0.5,  30,3\n'
        '"a,z",3,1,2.5,-2,-20\n'
        ' b ,1,1e0,\x1c-0.75\t,40,4\n'  # str.strip drops U+001C, which float() alone keeps
        "c,7,0,1,5,6\n"
    )
    want = Dataset(clusters=(
        ClusterSample(covariates=[[3.0, 30.0], [4.0, 40.0], [2.0, 20.0]], treatments=[0, 1, 1],
                      outcomes=[0.5, -0.75, 0.25], cluster_id="b"),
        ClusterSample(covariates=[[-20.0, -2.0], [-10.0, -1.0]], treatments=[1, 0],
                      outcomes=[2.5, 1.5], cluster_id="a,z"),
        ClusterSample(covariates=[[6.0, 5.0]], treatments=[0], outcomes=[1.0], cluster_id="c"),
    ))
    assert_same_dataset(load_dataset(write(tmp_path, "d.csv", text)), want)


def test_load_csv_scans_rows_only_for_malformed_input(tmp_path, monkeypatch):
    from clusterbal import cli

    calls = []
    monkeypatch.setattr(cli, "_first_bad_row", lambda *args: calls.append(args))
    load_dataset(write(tmp_path, "d.csv", CSV_6ROWS))
    assert calls == []


@pytest.mark.parametrize(
    "edits, row, column, message",
    [
        # a non-finite value is reported only once no row has a parse fault
        ([("a,1,0,2.5,0.3", "a,1,0,nan,0.3")], 2, "outcome", "outcome is not finite"),
        ([("a,1,0,2.5,0.3", "a,1,0,nan,0.3"), ("b,1,1,2.0,0.9", "b,1,1,2.0,abc")],
         5, "x1", "covariate is not numeric"),
        ([("b,0,0,1.0,0.7,0.8", "b,0,0,1.0,0.7")], 4, None, "expected 6 fields, got 5"),
        ([("b,0,0,1.0", "b,0,2,1.0")], 4, "treatment", "treatment must be 0/1, got 2"),
        ([("b,2,0,3.0", "a, 1.0 ,0,3.0")], 6, None, "with unit_id 1.0 is already on row 2"),
    ],
)
def test_load_csv_names_the_first_faulty_row(tmp_path, edits, row, column, message):
    bad = CSV_6ROWS
    for old, new in edits:
        assert old in bad
        bad = bad.replace(old, new)
    with pytest.raises(ParseError, match=message) as err:
        load_dataset(write(tmp_path, "d.csv", bad))
    assert (err.value.row, err.value.column) == (row, column)


@pytest.mark.parametrize("repeated", ["x1", "outcome"])
def test_repeated_csv_header_name_exits_1_naming_it(tmp_path, capsys, repeated):
    header, *rows = CSV_6ROWS.splitlines()
    bad = "\n".join([f"{header},{repeated}"] + [f"{r},7" for r in rows]) + "\n"
    with pytest.raises(ParseError, match=f"duplicate column '{repeated}'") as err:
        load_dataset(write(tmp_path, "d.csv", bad))
    assert err.value.column == repeated
    assert run(_estimate_args(tmp_path, dataset=write(tmp_path, "bad.csv", bad))) == EXIT_ERROR
    msg = capsys.readouterr().err
    assert "Traceback" not in msg and len(msg.strip().splitlines()) == 1
    assert msg.startswith("error:") and f"duplicate column '{repeated}'" in msg


# ---------- estimate ----------


def feasible_csv():
    # 4 singleton clusters, 2 treated / 2 control: balancing feasible for GATE
    rows = ["cluster_id,unit_id,treatment,outcome,x1"]
    for i, (a, y) in enumerate([(1, 2.0), (0, 1.0), (1, 3.0), (0, 2.0)]):
        rows.append(f"c{i},0,{a},{y},1.0")
    return "\n".join(rows) + "\n"


def test_estimate_command_writes_artifacts(tmp_path):
    data = write(tmp_path, "d.csv", feasible_csv())
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    structure = write_json(tmp_path, "structure.json", {"kind": "no_interference"})
    propensity = write_json(tmp_path, "prop.json", {"kind": "bernoulli", "prob": 0.5})
    out = tmp_path / "out"
    code = run(
        [
            "estimate", "--dataset", data, "--policy", policy,
            "--structure", structure, "--propensity", propensity,
            "--estimator", "balancing", "--estimator", "ipw",
            "--seed", "7", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "estimates.json").read_text())
    assert doc["manifest"]["seed"] == 7
    assert doc["result"]["balancing"]["feasible"] is True
    assert "variance" in doc["result"]["balancing"]
    # manifest digest matches the result payload
    payload = json.dumps(doc["result"], indent=1, sort_keys=True, default=float)
    assert doc["manifest"]["output_digest"] == hashlib.sha256(payload.encode()).hexdigest()
    csv_path = out / "estimates.csv"
    sidecar = json.loads((out / "estimates.csv.manifest.json").read_text())
    assert sidecar["output_digest"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()


def _knn_tensor(k):
    return {"kind": "tensor", "inner": {"kind": "knn_pattern", "k": k}, "columns": [0, 1]}


def _count_design_builds(monkeypatch):
    from clusterbal import estimators, structures

    calls = []
    original = structures._observed_design

    def counted(structure, dataset):
        calls.append(structure.label)
        return original(structure, dataset)

    monkeypatch.setattr(estimators, "_observed_design", counted)
    monkeypatch.setattr(structures, "_observed_design", counted)
    return calls


def test_estimate_csv_cells_parse_as_json_floats(tmp_path, rng, monkeypatch):
    d = make_dataset(rng, 30, sizes=(3, 5), p=2)
    data = str(tmp_path / "d.csv")
    write_dataset(d, data)
    policy = write_json(tmp_path, "policy.json", {"kind": "uniform"})
    structure = write_json(tmp_path, "structure.json", _knn_tensor(1))
    propensity = write_json(tmp_path, "prop.json", {"kind": "bernoulli", "prob": 0.5})
    calls = _count_design_builds(monkeypatch)
    out = tmp_path / "out"
    code = run(
        [
            "estimate", "--dataset", data, "--policy", policy,
            "--structure", structure, "--propensity", propensity,
            "--estimator", "ipw", "--estimator", "balancing", "--estimator", "projection",
            "--seed", "7", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    assert len(calls) == 1  # balancing and projection share one design
    result = json.loads((out / "estimates.json").read_text())["result"]
    with open(out / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["estimator"] for r in rows] == ["ipw", "balancing", "projection"]
    for row in rows:
        entry = result[row["estimator"]]
        assert float(row["point"]) == entry["point"]
        assert float(row["level"]) == entry["variance"]["level"]
        for key in ("sigma2_hat", "ci_low", "ci_high"):
            assert float(row[key]) == entry["variance"][key]


def test_estimate_takes_the_ipw_weights_once(tmp_path, rng, monkeypatch):
    from clusterbal import estimators

    d = make_dataset(rng, 30, sizes=(3, 5), p=2)
    data = str(tmp_path / "d.csv")
    write_dataset(d, data)
    policy = write_json(tmp_path, "policy.json", {"kind": "uniform"})
    structure = write_json(tmp_path, "structure.json", _knn_tensor(1))
    propensity = write_json(tmp_path, "prop.json", {"kind": "bernoulli", "prob": 0.5})

    def estimate(out, *names):
        args = ["estimate", "--dataset", data, "--policy", policy, "--structure", structure,
                "--propensity", propensity, "--seed", "7", "--out-dir", str(tmp_path / out)]
        assert run(args + [a for name in names for a in ("--estimator", name)]) == EXIT_OK
        return json.loads((tmp_path / out / "estimates.json").read_text())["result"]

    # each estimator alone takes its own weights
    alone = {name: estimate(name, name)[name] for name in ("ipw", "projection")}
    calls = []
    real = estimators._ipw_weights

    def counted(*a):
        calls.append(a)
        return real(*a)

    monkeypatch.setattr(estimators, "_ipw_weights", counted)
    for order in (("ipw", "projection"), ("projection", "ipw")):
        calls.clear()
        assert estimate("-".join(order), *order) == alone
        assert len(calls) == 1


def test_estimate_manifest_names_every_input_spec(tmp_path):
    data = write(tmp_path, "d.csv", feasible_csv())
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    propensity = write_json(tmp_path, "prop.json", {"kind": "bernoulli", "prob": 0.5})
    mapping = write_json(tmp_path, "mapping.json", {"name": "own_treatment"})
    out = tmp_path / "out"
    code = run(
        [
            "estimate", "--dataset", data, "--policy", policy, "--propensity", propensity,
            "--exposure-mapping", mapping, "--estimator", "exposure-ipw",
            "--seed", "7", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    want = {"dataset": data, "policy": policy, "propensity": propensity,
            "structure": None, "exposure_mapping": mapping}
    assert json.loads((out / "estimates.json").read_text())["manifest"]["inputs"] == want
    sidecar = json.loads((out / "estimates.csv.manifest.json").read_text())
    assert sidecar["inputs"] == want


def test_repeated_estimator_is_fitted_once(tmp_path):
    data = write(tmp_path, "d.csv", feasible_csv())
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    propensity = write_json(tmp_path, "prop.json", {"kind": "bernoulli", "prob": 0.5})
    out = tmp_path / "out"
    code = run(
        [
            "estimate", "--dataset", data, "--policy", policy, "--propensity", propensity,
            "--estimator", "ipw", "--estimator", "ipw", "--seed", "7", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    result = json.loads((out / "estimates.json").read_text())["result"]
    with open(out / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(result) == ["ipw"]
    assert [r["estimator"] for r in rows] == ["ipw"]
    assert float(rows[0]["point"]) == result["ipw"]["point"]
    assert float(rows[0]["sigma2_hat"]) == result["ipw"]["variance"]["sigma2_hat"]


def infeasible_csv():
    rows = ["cluster_id,unit_id,treatment,outcome,x1"]
    for i in range(3):
        rows.append(f"c{i},0,1,{float(i)},1.0")
    return "\n".join(rows) + "\n"


def test_estimate_infeasible_exit_code(tmp_path):
    data = write(tmp_path, "d.csv", infeasible_csv())
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    structure = write_json(
        tmp_path, "structure.json", {"kind": "tensor", "inner": {"kind": "no_interference"}, "columns": [0]}
    )
    out = tmp_path / "out"
    code = run(
        [
            "estimate", "--dataset", data, "--policy", policy,
            "--structure", structure, "--estimator", "balancing",
            "--seed", "1", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_INFEASIBLE
    assert (out / "imbalance.csv").exists()
    doc = json.loads((out / "estimates.json").read_text())
    assert doc["result"]["balancing"]["feasible"] is False
    # with the override the exit code is 0
    code2 = run(
        [
            "estimate", "--dataset", data, "--policy", policy,
            "--structure", structure, "--estimator", "balancing",
            "--seed", "1", "--out-dir", str(out), "--allow-infeasible",
        ]
    )
    assert code2 == EXIT_OK


def test_a_failing_estimate_writes_no_artifact(tmp_path, capsys):
    """An infeasible balancing fit, then an estimator that fails: the command
    exits 1 with one line and writes nothing, not even the imbalance report."""
    data = write(tmp_path, "d.csv", infeasible_csv())
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    structure = write_json(
        tmp_path, "structure.json", {"kind": "tensor", "inner": {"kind": "no_interference"}, "columns": [0]}
    )
    out = tmp_path / "out"
    code = run(
        [
            "estimate", "--dataset", data, "--policy", policy, "--structure", structure,
            "--estimator", "balancing", "--estimator", "projection", "--propensity", "unknown",
            "--seed", "1", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def _manifests(out):
    """{file name: manifest} of every artifact in out: a JSON document's own
    manifest, and a CSV's sidecar."""
    found = {}
    for path in out.glob("*.json"):
        doc = json.loads(path.read_text())
        found[path.name] = doc if path.name.endswith(".manifest.json") else doc["manifest"]
    return found


def test_every_artifact_of_a_run_carries_the_same_manifest(tmp_path):
    data = write(tmp_path, "d.csv", infeasible_csv())
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    structure = write_json(
        tmp_path, "structure.json", {"kind": "tensor", "inner": {"kind": "no_interference"}, "columns": [0]}
    )
    estimate = ["estimate", "--dataset", data, "--policy", policy, "--structure", structure,
                "--estimator", "balancing", "--out-dir", str(tmp_path / "est")]
    simulate_argv = ["simulate", "--config", sim_config(tmp_path), "--reps", "1", "--seed", "3",
                     "--truth-draws", "2000", "--estimators", "ipw", "--out-dir", str(tmp_path / "sim")]
    for argv, out, files, inputs in [
        (estimate, "est",
         {"estimates.json", "estimates.csv.manifest.json", "imbalance.csv.manifest.json"},
         {"dataset": data, "policy": policy, "propensity": "unknown", "structure": structure,
          "exposure_mapping": None}),
        (simulate_argv, "sim", {"simulate.json", "simulate.csv.manifest.json"},
         {"preset": None, "config": str(tmp_path / "cfg.json")}),
    ]:
        assert run(argv) in (EXIT_OK, EXIT_INFEASIBLE)
        manifests = _manifests(tmp_path / out)
        assert set(manifests) == files
        shared = {(m["command"], m["seed"], json.dumps(m["inputs"], sort_keys=True), m["version"])
                  for m in manifests.values()}
        assert len(shared) == 1
        command, seed, got_inputs, _ = shared.pop()
        assert command == "clusterbal " + " ".join(argv)
        assert json.loads(got_inputs) == inputs
        if "--seed" in argv:
            assert seed == int(argv[argv.index("--seed") + 1])


def test_estimate_unknown_propensity_rejects_ipw(tmp_path):
    data = write(tmp_path, "d.csv", feasible_csv())
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    code = run(
        ["estimate", "--dataset", data, "--policy", policy, "--estimator", "ipw", "--out-dir", str(tmp_path / "o")]
    )
    assert code == 1



@pytest.mark.parametrize(
    "estimator, missing",
    [
        ("balancing", "structure"),
        ("projection", "structure"),
        ("wproj", "structure"),
        ("exposure-ipw", "exposure mapping"),
    ],
)
def test_estimate_missing_input_exits_1_with_one_line(tmp_path, capsys, estimator, missing):
    data = write(tmp_path, "d.csv", feasible_csv())
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    propensity = write_json(tmp_path, "prop.json", {"kind": "bernoulli", "prob": 0.5})
    code = run(
        ["estimate", "--dataset", data, "--policy", policy, "--propensity", propensity,
         "--estimator", estimator, "--out-dir", str(tmp_path / "out")]
    )
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"error: estimator {estimator!r} needs the {missing} input, and none was given"
    ]
    assert not (tmp_path / "out").exists()


def test_estimate_choices_are_the_estimator_table(tmp_path, capsys):
    assert run(["estimate", "--help"]) == EXIT_OK
    assert "{" + ",".join(ESTIMATORS) + "}" in capsys.readouterr().out
    assert run(_estimate_args(tmp_path) + ["--estimator", "foo"]) == EXIT_USAGE


# ---------- balance-report / select ----------


def test_balance_report_command(tmp_path):
    data = write(tmp_path, "d.csv", infeasible_csv())
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    structure = write_json(
        tmp_path, "structure.json", {"kind": "tensor", "inner": {"kind": "no_interference"}, "columns": [0]}
    )
    out = tmp_path / "out"
    code = run(
        [
            "balance-report", "--dataset", data, "--policy", policy,
            "--structure", structure, "--out-dir", str(out), "--seed", "3",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "balance_report.json").read_text())
    assert doc["result"]["feasible"] is False
    with open(out / "balance_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {"covariate", "effective_treatment", "nu", "sigma", "nu_star", "flagged"} <= set(rows[0])


def test_select_single_candidate(tmp_path, rng):
    d = make_dataset(rng, 10, sizes=(3, 5), p=2)
    data = str(tmp_path / "d.csv")
    write_dataset(d, data)
    policy = write_json(tmp_path, "policy.json", {"kind": "uniform"})
    candidates = write_json(
        tmp_path, "cands.json",
        [{"kind": "tensor", "inner": {"kind": "knn_pattern", "k": 1}, "columns": [0, 1]}],
    )
    out = tmp_path / "out"
    code = run(
        [
            "select", "--dataset", data, "--policy", policy,
            "--candidates", candidates, "--out-dir", str(out), "--seed", "5",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "selection.json").read_text())
    assert doc["result"]["chosen"] == 0
    assert doc["result"]["statistics"] == []


def test_select_builds_each_design_once(tmp_path, rng, monkeypatch):
    d = make_dataset(rng, 30, sizes=(3, 5), p=2)
    data = str(tmp_path / "d.csv")
    write_dataset(d, data)
    policy = write_json(tmp_path, "policy.json", {"kind": "uniform"})
    candidates = write_json(tmp_path, "cands.json", [_knn_tensor(1), _knn_tensor(2)])
    calls = _count_design_builds(monkeypatch)
    out = tmp_path / "out"
    code = run(
        [
            "select", "--dataset", data, "--policy", policy,
            "--candidates", candidates, "--out-dir", str(out), "--seed", "5",
        ]
    )
    assert code == EXIT_OK
    assert calls == ["tensor[knn_pattern]"] * 2
    assert len(json.loads((out / "selection.json").read_text())["result"]["statistics"]) == 1


def test_select_warns_in_one_line_and_records_nesting(tmp_path, rng, capsys):
    d = make_dataset(rng, 30, sizes=(3, 5), p=2)
    data = str(tmp_path / "d.csv")
    write_dataset(d, data)
    policy = write_json(tmp_path, "policy.json", {"kind": "uniform"})
    # knn2 is not nested in knn1; knn1 is nested in knn3
    candidates = write_json(tmp_path, "cands.json", [_knn_tensor(k) for k in (2, 1, 3)])
    out = tmp_path / "out"
    code = run(
        [
            "select", "--dataset", data, "--policy", policy,
            "--candidates", candidates, "--out-dir", str(out), "--seed", "5",
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: candidate 0 'tensor[knn_pattern]' is not nested in "
        "candidate 1 'tensor[knn_pattern]' on the observed design\n"
    )
    assert json.loads((out / "selection.json").read_text())["result"]["nested"] == [False, True]


# ---------- simulate / calibrate ----------


def sim_config(tmp_path, **over):
    doc = {
        "n": 8,
        "interference": "stratified5",
        "kappa": 0.2,
        "snr_target": 0.2,
        "sigma2": 1.0,
        "axis": "n",
        "values": [8],
    }
    doc.update(over)
    return write_json(tmp_path, "cfg.json", doc)


def test_simulate_deterministic_serial_vs_parallel(tmp_path):
    cfg = sim_config(tmp_path)
    outs = []
    for i, extra in enumerate(([], ["--parallel", "--workers", "2"])):
        out = tmp_path / f"out{i}"
        code = run(
            [
                "simulate", "--config", cfg, "--reps", "3", "--seed", "9",
                "--truth-draws", "2000", "--out-dir", str(out), *extra,
            ]
        )
        assert code == EXIT_OK
        outs.append((out / "simulate.csv").read_bytes())
    assert outs[0] == outs[1]
    with open(tmp_path / "out0" / "simulate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["estimator"] for r in rows} == {"ipw", "balancing", "projection"}
    assert {"sd", "coverage", "ci_length", "feasibility_rate"} <= set(rows[0])



def test_simulate_unknown_estimator_exits_1_before_any_work(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the estimator names were checked")

    monkeypatch.setattr(simulate, "true_mu", forbidden)
    monkeypatch.setattr(simulate, "resolve_gamma", forbidden)
    out = tmp_path / "out"
    code = run(
        ["simulate", "--config", sim_config(tmp_path), "--reps", "2", "--seed", "1",
         "--estimators", "ipw,foo", "--out-dir", str(out)]
    )
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown estimators ['foo']")
    assert not out.exists()


def test_calibrate_command(tmp_path, capsys):
    cfg = sim_config(tmp_path)
    out = tmp_path / "cal"
    code = run(["calibrate", "--config", cfg, "--seed", "2", "--out-dir", str(out)])
    assert code == EXIT_OK
    doc = json.loads((out / "calibration.json").read_text())
    assert doc["result"]["gamma"] > 0
    assert "gamma" in capsys.readouterr().out


def test_calibrate_snr_target_replaces_only_that_field(tmp_path):
    cfg_path = sim_config(tmp_path)

    def calibrate(*extra):
        out = tmp_path / f"cal{len(extra)}"
        argv = ["calibrate", "--config", cfg_path, "--seed", "2", "--out-dir", str(out), *extra]
        assert run(argv) == EXIT_OK
        return json.loads((out / "calibration.json").read_text())["result"]

    doc = calibrate("--snr-target", "0.5")
    cfg, _, _ = _config_from_file(cfg_path, 2)
    assert doc["snr_target"] == 0.5
    assert doc["gamma"] == simulate.calibrate_snr(dataclasses.replace(cfg, snr_target=0.5)).gamma
    # gamma = sqrt(target / SNR(1)), and nothing else of the config changed
    assert np.isclose(doc["gamma"], calibrate()["gamma"] * np.sqrt(0.5 / 0.2), rtol=1e-12)


def test_calibrate_non_positive_snr_target_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "cal"
    for value in ("0", "nan", "inf"):
        argv = ["calibrate", "--config", sim_config(tmp_path), "--seed", "2",
                "--snr-target", value, "--out-dir", str(out)]
        assert run(argv) == EXIT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "snr_target" in err[0]
        assert not out.exists()


def _range_args(tmp_path, command):
    """argv of a command that succeeds with tmp_path / "out" as its out-dir."""
    if command == "estimate":
        return _estimate_args(tmp_path)
    out = ["--out-dir", str(tmp_path / "out")]
    if command == "simulate":
        return ["simulate", "--config", sim_config(tmp_path), "--reps", "2", "--seed", "1"] + out
    data = write(tmp_path, "d.csv", feasible_csv())
    policy = write_json(tmp_path, "policy.json", {"kind": "uniform"})
    if command == "select":
        candidates = write_json(tmp_path, "cands.json", [{"kind": "no_interference"}])
        return ["select", "--dataset", data, "--policy", policy, "--candidates", candidates] + out
    structure = write_json(tmp_path, "structure.json", {"kind": "no_interference"})
    return ["balance-report", "--dataset", data, "--policy", policy, "--structure", structure] + out


@pytest.mark.parametrize(
    "command, flag, value",
    [("estimate", "--level", v) for v in ("1.5", "-1", "nan", "0", "1")]
    + [("simulate", "--level", v) for v in ("1.5", "nan")]
    + [("select", "--alpha", v) for v in ("2", "nan", "0")]
    + [("balance-report", "--threshold", v) for v in ("nan", "-0.1")]
    + [("simulate", "--workers", "0"), ("simulate", "--truth-draws", "-5")],
)
def test_out_of_range_level_alpha_or_threshold_exits_1_with_one_line(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the level was checked")

    monkeypatch.setattr(simulate, "true_mu", forbidden)
    argv = _range_args(tmp_path, command)
    assert run(argv + [flag, value]) == EXIT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert flag[2:].replace("-", "_") in err[0]
    assert not (tmp_path / "out").exists()
    # the same command runs with the default
    if command != "simulate":
        assert run(argv) == EXIT_OK


@pytest.mark.parametrize("command", ["estimate", "balance-report", "select", "simulate", "calibrate"])
def test_format_is_an_option_of_the_dataset_commands_only(tmp_path, capsys, command):
    argv = (["calibrate", "--config", sim_config(tmp_path), "--out-dir", str(tmp_path / "out")]
            if command == "calibrate" else _range_args(tmp_path, command))
    if command in ("simulate", "calibrate"):
        assert run(argv + ["--format", "csv"]) == EXIT_USAGE
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    else:
        assert run(argv + ["--format", "csv"]) == EXIT_OK


def test_usage_errors_exit_64(tmp_path):
    assert run(["estimate"]) == EXIT_USAGE
    assert run(["simulate"]) == EXIT_USAGE
    assert run(["frobnicate"]) == EXIT_USAGE


# ---------- malformed input: one stderr line, exit 1 ----------


def _estimate_args(tmp_path, **paths):
    files = {
        "dataset": write(tmp_path, "d.csv", feasible_csv()),
        "policy": write_json(tmp_path, "policy.json", {"kind": "gate"}),
        "structure": write_json(tmp_path, "structure.json", {"kind": "no_interference"}),
    }
    files.update(paths)
    args = ["estimate", "--estimator", "balancing", "--out-dir", str(tmp_path / "out")]
    for name, path in files.items():
        args += [f"--{name}", path]
    return args


@pytest.mark.parametrize(
    "case, expect",
    [
        ("missing_key", "'k'"),
        ("not_json", "bad.json"),
        ("missing_file", "absent.csv"),
        ("wrong_type", "'k'"),
        ("no_covariates", "'covariates'"),
    ],
)
def test_malformed_input_exits_1_with_one_line(tmp_path, capsys, case, expect):
    if case == "missing_key":
        paths = {"structure": write_json(tmp_path, "s.json", {"kind": "knn_pattern"})}
    elif case == "not_json":
        paths = {"policy": write(tmp_path, "bad.json", "{kind: gate")}
    elif case == "wrong_type":
        paths = {"structure": write_json(tmp_path, "s.json", {"kind": "knn_pattern", "k": "abc"})}
    elif case == "no_covariates":
        entry = {"cluster_id": "a", "treatments": [1, 0], "outcomes": [1.0, 2.0]}
        paths = {"dataset": write_json(tmp_path, "d.json", {"clusters": [entry]})}
    else:
        paths = {"dataset": str(tmp_path / "absent.csv")}
    assert run(_estimate_args(tmp_path, **paths)) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert expect in err


def _two_pair_csv():
    rows = ["cluster_id,unit_id,treatment,outcome,x1"]
    for cid, bits in (("c0", (1, 0)), ("c1", (0, 1))):
        rows += [f"{cid},{i},{a},{1.0 + i},{0.5 - i}" for i, a in enumerate(bits)]
    return "\n".join(rows) + "\n"


_UNIFORM_TABLE = {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}


def _with_key(old, new, value=0.25):
    return {(new if k == old else k): (value if k == old else v) for k, v in _UNIFORM_TABLE.items()}


@pytest.mark.parametrize(
    "tables, expect",
    [
        ({"c0": _UNIFORM_TABLE, "c1": _UNIFORM_TABLE}, None),
        ({"c0": _with_key("10", "12"), "c1": _UNIFORM_TABLE}, "'12'"),
        ({"c0": _with_key("10", "1x"), "c1": _UNIFORM_TABLE}, "'1x'"),
        ({"c0": _with_key("10", ""), "c1": _UNIFORM_TABLE}, "''"),
        ({"c0": _UNIFORM_TABLE, "c1": _with_key("10", "000")}, "(0, 0, 0)"),
        ({"c0": _with_key("10", "10", "x"), "c1": _UNIFORM_TABLE}, "'x'"),
        ({"c0": _with_key("10", "10", None), "c1": _UNIFORM_TABLE}, "None"),
        ({"c0": 1, "c1": _UNIFORM_TABLE}, "'tables'"),
        ([1], "'tables'"),
    ],
    ids=["well_formed", "digit_2", "letter", "empty_key", "wrong_length", "value_not_number",
         "value_null", "table_not_object", "tables_not_object"],
)
def test_malformed_joint_table_exits_1_with_one_line(tmp_path, capsys, tables, expect):
    paths = {
        "dataset": write(tmp_path, "pairs.csv", _two_pair_csv()),
        "propensity": write_json(tmp_path, "p.json", {"kind": "joint_table", "tables": tables}),
    }
    args = _estimate_args(tmp_path, **paths) + ["--estimator", "ipw"]
    if expect is None:
        assert run(args) == 0
        return
    assert run(args) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and expect in err


@pytest.mark.parametrize(
    "weight, expect",
    [
        ({"kind": "deterministic", "units": [0]}, None),
        ({"kind": "deterministic", "units_by_cluster": {"c0": [0], "c1": []}}, None),
        ({"kind": "deterministic", "units": ["x"]}, "'units'"),
        ({"kind": "deterministic", "units": [True]}, "'units'"),
        ({"kind": "deterministic", "units": [math.inf]}, "'units'"),
        ({"kind": "deterministic", "units": 0}, "'units'"),
        ({"kind": "deterministic", "units_by_cluster": [1]}, "'units_by_cluster'"),
        ({"kind": "deterministic", "units_by_cluster": {"c0": [0], "c1": 1}}, "'units_by_cluster'"),
        ({"kind": "deterministic", "units_by_cluster": {"c0": ["a"], "c1": []}}, "'units_by_cluster'"),
    ],
    ids=["units", "units_by_cluster", "unit_not_number", "unit_bool", "unit_infinite", "units_not_list",
         "by_cluster_not_object", "by_cluster_list_not_list", "by_cluster_unit_not_number"],
)
def test_malformed_deterministic_weight_exits_1_with_one_line(tmp_path, capsys, weight, expect):
    paths = {
        "dataset": write(tmp_path, "pairs.csv", _two_pair_csv()),
        "policy": write_json(tmp_path, "w.json", weight),
        "propensity": write_json(tmp_path, "p.json", {"kind": "bernoulli", "prob": 0.5}),
    }
    args = _estimate_args(tmp_path, **paths) + ["--estimator", "ipw"]
    if expect is None:
        assert run(args) == 0
        return
    assert run(args) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and expect in err


def _two_covariate_csv():
    rows = ["cluster_id,unit_id,treatment,outcome,x1,x2"]
    for cid, bits in (("c0", (1, 0)), ("c1", (0, 1)), ("c2", (1, 1)), ("c3", (0, 0))):
        rows += [f"{cid},{i},{a},{1.0 + i},{0.5 - i},{i * i}" for i, a in enumerate(bits)]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "column, ok",
    [
        (1, True), ("x2", True), ({"cluster_mean": 1}, True),
        ("x0", False), (-1, False), (True, False), ({"cluster_mean": -1}, False),
        ("xa", False), ({"cluster_mean": "a"}, False), (["cluster_mean", 0], False),
    ],
)
def test_malformed_tensor_column_exits_1_with_one_line(tmp_path, capsys, column, ok):
    structure = {"kind": "tensor", "inner": {"kind": "no_interference"}, "columns": [column]}
    paths = {
        "dataset": write(tmp_path, "two_covariates.csv", _two_covariate_csv()),
        "structure": write_json(tmp_path, "s.json", structure),
    }
    args = _estimate_args(tmp_path, **paths)
    if ok:
        assert run(args) == 0
        return
    assert run(args) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: tensor column " + repr(column))


def test_knn_k_beyond_the_pattern_cap_exits_1_naming_k(tmp_path, capsys):
    paths = {"structure": write_json(tmp_path, "s.json", {"kind": "knn_pattern", "k": 30})}
    assert run(_estimate_args(tmp_path, **paths)) == EXIT_ERROR
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: k-NN k 30 exceeds the pattern enumeration cap 20")


@pytest.mark.parametrize(
    "build, doc, field",
    [
        (build_structure, {"kind": "knn_pattern"}, "k"),
        (build_structure, {"kind": "tensor", "columns": [0]}, "inner"),
        (exposure_from_spec, {"name": "neighbor_count"}, "k"),
        (weight_from_json, {"kind": "random_selection"}, "count"),
        (weight_from_json, {"kind": "sparse", "entries": [{"cluster_id": "a"}]}, "pattern"),
        (propensity_from_json, {"kind": "joint_table"}, "tables"),
    ],
)
def test_spec_builders_name_the_missing_field(build, doc, field):
    with pytest.raises(InvalidSpec, match=f"missing required field '{field}'"):
        build(doc)


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
def test_config_unknown_field_exits_1_with_one_line(tmp_path, capsys, command):
    cfg = write_json(tmp_path, "cfg.json", {"n": 10, "bogus": 1})
    code = run([command, "--config", cfg, "--seed", "1", "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "'bogus'" in err


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
@pytest.mark.parametrize(
    "doc, field",
    [
        ({"n": "abc"}, "'n'"),
        ({"n": 10, "rho": "x"}, "'rho'"),
        ({"n": 10, "gamma": [1.0]}, "'gamma'"),
        ({"n": 10, "interference": 5}, "'interference'"),
        ({"n": 10, "cluster_sizes": [[10]]}, "'cluster_sizes'"),
        ({"n": 10, "values": 5}, "'values'"),
        # each sweep value is checked as the field its axis sets
        ({"n": 10, "values": ["abc"]}, "'values'"),
        ({"n": 10, "values": [None]}, "'values'"),
        ({"n": 10, "values": [2.7]}, "'values'"),
        ({"n": 10, "axis": "kappa", "values": [math.inf]}, "'values'"),
        ({"n": 10, "axis": "snr_target", "values": [0.5, "x"]}, "'values'"),
        ({"n": 10, "axis": "rho", "values": [0.1]}, "'axis'"),
        # DGPConfig checks its own fields, each as a config spec field
        ({"n": 2.7}, "'n'"),
        ({"n": 10, "p": 4.5}, "'p'"),
        ({"n": 10, "kappa": math.nan}, "'kappa'"),
        ({"n": 10, "gamma": math.nan}, "'gamma'"),
        ({"n": 10, "sigma2": math.nan}, "'sigma2'"),
        ({"n": 10, "snr_target": math.inf}, "'snr_target'"),
        ({"n": 10, "cluster_sizes": [[3.5, 1.0]]}, "'cluster_sizes'"),
        ({"n": 10, "cluster_sizes": [[True, 1.0]]}, "'cluster_sizes'"),
        ({"n": 10, "cluster_sizes": [[10, "x"]]}, "'cluster_sizes'"),
        ({"n": 10, "cluster_sizes": [[10, math.nan]]}, "'cluster_sizes'"),
    ],
)
def test_config_wrong_type_exits_1_with_one_line(tmp_path, capsys, command, doc, field):
    cfg = write_json(tmp_path, "cfg.json", doc)
    code = run([command, "--config", cfg, "--seed", "1", "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "name, doc, field",
    [
        ("policy", {"kind": "bernoulli", "prob": "abc"}, "'prob'"),
        ("policy", {"kind": "bernoulli", "family": "probit_mean", "kappa": "abc"}, "'kappa'"),
        ("propensity", {"kind": "bernoulli", "prob": [0.5]}, "'prob'"),
        ("propensity", {"kind": "bernoulli", "family": "probit_mean", "kappa": None}, "'kappa'"),
        ("policy", {"kind": "sparse", "entries": [
            {"cluster_id": "a", "pattern": [1], "weight": "w"}]}, "'weight'"),
        ("policy", {"kind": "bernoulli", "family": "probit_mean", "kappa": math.nan}, "'kappa'"),
        ("propensity", {"kind": "bernoulli", "prob": math.nan}, "'prob'"),
        ("policy", {"kind": "bernoulli", "prob": math.inf}, "'prob'"),
        ("propensity", {"kind": "bernoulli", "family": "probit_mean", "kappa": -math.inf}, "'kappa'"),
        ("policy", {"kind": "bernoulli", "prob": 10**400}, "'prob'"),
    ],
)
def test_non_numeric_spec_field_exits_1_with_one_line(tmp_path, capsys, name, doc, field):
    paths = {name: write_json(tmp_path, f"bad_{name}.json", doc)}
    assert run(_estimate_args(tmp_path, **paths)) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "build, doc",
    [
        (build_structure, {"kind": "knn_pattern", "k": "abc"}),
        (build_structure, {"kind": "additive_types", "s": 2.5}),
        (exposure_from_spec, {"name": "neighbor_pattern", "k": True}),
        (weight_from_json, {"kind": "random_selection", "count": [1]}),
    ],
)
def test_spec_builders_reject_non_integer_fields(build, doc):
    with pytest.raises(InvalidSpec, match="must be an integer"):
        build(doc)


def test_calibrate_preset_choices():
    assert run(["calibrate", "--preset", "fig1-sideways"]) == EXIT_USAGE


# ---------- infeasible fits on structures without covariates ----------


def test_estimate_infeasible_non_tensor_structure_exits_2_with_report(tmp_path, capsys):
    rows = ["cluster_id,unit_id,treatment,outcome,x1"]
    rows += [f"c{c},{u},1,{c + u},{0.5 * u}" for c in range(2) for u in range(2)]
    data = write(tmp_path, "d.csv", "\n".join(rows) + "\n")
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    structure = write_json(tmp_path, "structure.json", {"kind": "knn_pattern", "k": 1})
    out = tmp_path / "out"
    code = run(
        [
            "estimate", "--dataset", data, "--policy", policy, "--structure", structure,
            "--estimator", "balancing", "--seed", "1", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_INFEASIBLE
    assert "error" not in capsys.readouterr().err
    doc = json.loads((out / "estimates.json").read_text())
    assert doc["result"]["balancing"]["feasible"] is False
    report = doc["result"]["imbalance"]
    assert report["nu"] == doc["result"]["balancing"]["imbalance"]
    assert report["flagged"] == [] and report["m_counts"] == [0.0, 4.0]  # every neighbor treated
    with open(out / "imbalance.csv") as fh:
        table = list(csv.DictReader(fh))
    assert [float(r["nu"]) for r in table] == report["nu"]
    assert all(r["covariate"] == "" for r in table)


# ---------- strict JSON artifacts ----------


def _reject_constant(token):
    raise ValueError(f"non-RFC 8259 token {token}")


def test_json_artifacts_write_non_finite_floats_as_null(tmp_path):
    cfg = sim_config(tmp_path)
    out = tmp_path / "out"
    code = run(
        ["simulate", "--config", cfg, "--reps", "1", "--seed", "3", "--truth-draws", "2000",
         "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    text = (out / "simulate.json").read_text()
    doc = json.loads(text, parse_constant=_reject_constant)
    assert all(row["sd"] is None for row in doc["result"])  # one replicate: no sd
    assert {r["estimator"]: r["error_classes"] for r in doc["result"]} == {
        "ipw": {}, "balancing": {}, "projection": {}
    }
    payload = json.dumps(doc["result"], indent=1, sort_keys=True, default=float)
    assert doc["manifest"]["output_digest"] == hashlib.sha256(payload.encode()).hexdigest()
    with open(out / "simulate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["sd"] == "nan" for r in rows)
    assert "error_classes" not in rows[0]


def test_json_artifact_bytes_match_two_dump_construction(tmp_path):
    rng = np.random.default_rng(5)
    result = {
        "rows": [
            {"point": np.float64(0.25), "sd": float("nan"), "ci": [np.float64(-1.5), float("inf")]},
            {"label": "two\nlines \"quoted\"", "nested": {"empty": [], "none": None, "z": {}}},
        ],
        "weights": rng.standard_normal(2000).tolist(),
        "count": 3,
    }
    manifest = RunManifest(
        command="clusterbal estimate", inputs={"dataset": "d.csv", "policy": None},
        seed=1, version="0", timestamp="t",
    )
    path = str(tmp_path / "out.json")
    write_json_artifact(path, result, manifest)

    def dump(doc):
        return json.dumps(doc, indent=1, sort_keys=True, default=float, allow_nan=False)

    finite = dict(result, rows=[{"point": 0.25, "sd": None, "ci": [-1.5, None]}, result["rows"][1]])
    want_digest = hashlib.sha256(dump(finite).encode()).hexdigest()
    assert manifest.output_digest == want_digest
    manifest_doc = {
        "command": "clusterbal estimate", "inputs": {"dataset": "d.csv", "policy": None},
        "seed": 1, "version": "0", "timestamp": "t", "output_digest": want_digest,
    }
    want = dump({"manifest": manifest_doc, "result": finite}).encode()
    with open(path, "rb") as fh:
        assert fh.read() == want


def test_balance_report_json_is_strict(tmp_path):
    data = write(tmp_path, "d.csv", CSV_6ROWS)
    policy = write_json(tmp_path, "policy.json", {"kind": "uniform"})
    structure = write_json(tmp_path, "s.json", {"kind": "no_interference"})
    out = tmp_path / "out"
    code = run(["balance-report", "--dataset", data, "--policy", policy,
                "--structure", structure, "--seed", "1", "--out-dir", str(out)])
    assert code == EXIT_OK
    doc = json.loads((out / "balance_report.json").read_text(), parse_constant=_reject_constant)
    assert doc["result"]["nu_star"] == [[None, None]]


# ---------- non-finite and duplicate data rows ----------


@pytest.mark.parametrize(
    "old, new, row, column",
    [
        ("a,1,0,2.5,0.3", "a,1,0,nan,0.3", 2, "outcome"),
        ("b,0,0,1.0,0.7,0.8", "b,0,0,1.0,0.7,-inf", 4, "x2"),
        ("b,1,1,2.0,0.9", "b,1,1,2.0,Infinity", 5, "x1"),
        ("a,2,1", "a,nan,1", 3, "unit_id"),
    ],
)
def test_non_finite_csv_cell_exits_1_naming_row_and_column(tmp_path, capsys, old, new, row, column):
    bad = CSV_6ROWS.replace(old, new)
    assert bad != CSV_6ROWS
    with pytest.raises(ParseError) as err:
        load_dataset(write(tmp_path, "d.csv", bad))
    assert (err.value.row, err.value.column) == (row, column)
    assert run(_estimate_args(tmp_path, dataset=write(tmp_path, "bad.csv", bad))) == EXIT_ERROR
    msg = capsys.readouterr().err
    assert "Traceback" not in msg and len(msg.strip().splitlines()) == 1
    assert f"(row {row}, column '{column}')" in msg and "not finite" in msg


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("outcomes", float("nan"), "outcomes of unit 1 is not finite"),
        ("covariates", float("inf"), "covariates of unit 1 is not finite"),
        ("outcomes", 10**400, "outcomes of unit 1 is not finite"),
        ("outcomes", "x", "outcomes of unit 1 is not numeric"),
        ("outcomes", "1_0", "outcomes of unit 1 is not numeric"),
        ("outcomes", True, "outcomes of unit 1 is not numeric"),
        ("covariates", "1.5", "covariates of unit 1 is not numeric"),
        ("covariates", False, "covariates of unit 1 is not numeric"),
        ("covariates", [1.0, 2.0], "covariates of unit 1 is not numeric"),
    ],
)
def test_non_finite_json_cell_is_a_parse_error(tmp_path, capsys, key, value, message):
    entries = [
        {"cluster_id": "a", "covariates": [[0.1], [0.2]], "treatments": [1, 0], "outcomes": [1.0, 2.0]},
        {"cluster_id": "b", "covariates": [[0.3], [0.4]], "treatments": [0, 1], "outcomes": [3.0, 4.0]},
    ]
    if key == "outcomes":
        entries[1]["outcomes"][1] = value
    else:
        entries[1]["covariates"][1][0] = value
    path = write(tmp_path, "d.json", json.dumps({"clusters": entries}))  # NaN / Infinity tokens
    with pytest.raises(ParseError, match=f"cluster entry 1: {message}"):
        load_dataset(path)
    assert run(_estimate_args(tmp_path, dataset=path)) == EXIT_ERROR
    msg = capsys.readouterr().err
    assert "Traceback" not in msg and len(msg.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "treatments, message",
    [
        ([0.5, 1.9], "treatment of unit 0 must be 0/1, got 0.5"),
        (["x", 0], "treatment of unit 0 is not numeric"),
        ([1, 2], "treatment of unit 1 must be 0/1, got 2"),
        ([0, True], "treatment of unit 1 is not numeric"),
        (1, "treatments are not a list"),
    ],
)
def test_json_treatments_must_be_0_1_numbers(tmp_path, capsys, treatments, message):
    entries = [
        {"cluster_id": "a", "covariates": [[0.1], [0.2]], "treatments": [1, 0], "outcomes": [1.0, 2.0]},
        {"cluster_id": "b", "covariates": [[0.3], [0.4]], "treatments": treatments, "outcomes": [3.0, 4.0]},
    ]
    path = write_json(tmp_path, "d.json", {"clusters": entries})
    with pytest.raises(ParseError, match=f"cluster entry 1: {message}"):
        load_dataset(path)
    policy = write_json(tmp_path, "policy.json", {"kind": "gate"})
    structure = write_json(tmp_path, "structure.json", {"kind": "no_interference"})
    args = ["balance-report", "--dataset", path, "--policy", policy, "--structure", structure,
            "--out-dir", str(tmp_path / "out")]
    assert run(args) == EXIT_ERROR
    msg = capsys.readouterr().err
    assert "Traceback" not in msg and len(msg.strip().splitlines()) == 1 and message in msg


def test_json_treatments_accept_float_0_1(tmp_path):
    entry = {"cluster_id": "a", "covariates": [[0.1], [0.2]], "treatments": [1.0, 0.0], "outcomes": [1.0, 2.0]}
    d = load_dataset(write_json(tmp_path, "d.json", {"clusters": [entry]}))
    assert d.clusters[0].treatments.dtype == np.int8
    assert d.clusters[0].treatments.tolist() == [1, 0]


def test_duplicate_unit_rows_exit_1_naming_the_second_row(tmp_path, capsys):
    bad = CSV_6ROWS.replace("b,2,0,3.0", "b,1.0,0,3.0")
    with pytest.raises(ParseError, match="already on row 5") as err:
        load_dataset(write(tmp_path, "d.csv", bad))
    assert err.value.row == 6
    assert run(_estimate_args(tmp_path, dataset=write(tmp_path, "bad.csv", bad))) == EXIT_ERROR
    msg = capsys.readouterr().err
    assert "Traceback" not in msg and len(msg.strip().splitlines()) == 1
    assert "duplicate unit" in msg and "(row 6)" in msg


def test_duplicate_json_cluster_entries_are_a_parse_error(tmp_path, capsys):
    entry = {"cluster_id": "a", "covariates": [[0.1]], "treatments": [1], "outcomes": [1.0]}
    other = dict(entry, cluster_id="b")
    path = write(tmp_path, "d.json", json.dumps({"clusters": [entry, other, entry]}))
    with pytest.raises(ParseError, match="cluster entry 2 repeats cluster_id 'a' of entry 0"):
        load_dataset(path)
    assert run(_estimate_args(tmp_path, dataset=path)) == EXIT_ERROR
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
