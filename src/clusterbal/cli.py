"""Command-line front end: dataset ingestion, estimation, diagnostics,
structure selection, and simulation sweeps.

Exit codes: 0 success, 1 operational error, 2 statistical infeasibility
without --allow-infeasible, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import operator
import os
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import ClusterSample, Dataset
from .diagnostics import imbalance_report
from .errors import ClusterbalError, InfeasibleFit, InvalidSpec, ParseError
from .estimators import balancing_fit
from .inference import ESTIMATORS, fit_estimator, select_structure
from .simulate import (
    DEFAULT_ESTIMATORS,
    PRESETS,
    DGPConfig,
    calibrate_snr,
    preset_config,
    sweep,
    sweep_values,
)
from .specio import propensity_from_json, weight_from_json
from .structures import build_structure, exposure_from_spec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64


# ---------- dataset io ----------


def load_dataset(path, fmt=None):
    """Dataset from CSV (cluster_id, unit_id, treatment, outcome, x1..xp) or JSON.

    A CSV is read as UTF-8, a leading byte-order mark skipped. A file that
    holds no quote, carriage return or NUL is read by numpy's C reader
    (`_csv_columns`). Any other file, and one that reader refuses or whose
    arrays fail a check, is parsed by `_csv_rows`, which names the faulty row.
    """
    fmt = fmt or ("json" if str(path).endswith(".json") else "csv")
    if fmt == "json":
        return _load_json_dataset(path)
    if fmt != "csv":
        raise ParseError(f"unknown dataset format {fmt!r}")
    text = _read_text(path, encoding="utf-8-sig", newline="")
    dataset = None if any(c in text for c in '"\r\0') else _csv_columns(text)
    return dataset if dataset is not None else _csv_rows(text)


_NUMERIC = ("unit_id", "treatment", "outcome")


def _csv_header(row):
    """The stripped header names of `row` and the covariate names x1..xp in
    order of p."""
    header = [h.strip() for h in row]
    for j, h in enumerate(header):
        if h in header[:j]:
            raise ParseError(f"duplicate column {h!r}", column=h)
    for col in ("cluster_id", *_NUMERIC):
        if col not in header:
            raise ParseError(f"missing column {col!r}", column=col)
    xcols = [h for h in header if h.startswith("x")]
    try:
        xcols.sort(key=lambda h: int(h[1:]))
    except ValueError as exc:
        raise ParseError(f"malformed covariate column name: {exc}") from exc
    if not xcols:
        raise ParseError("no covariate columns x1..xp found")
    return header, xcols


def _csv_columns(text):
    """The dataset of CSV `text` with no quote, carriage return or NUL, read by
    numpy's C reader; None when a line is longer than csv's field limit, a row
    has the wrong number of fields, the reader refuses a cell or warns, or
    `_dataset_from_table` finds a fault.
    Without those characters `csv.reader`'s fields are the text between commas,
    and the reader strips a cell of what `str.strip` drops before reading it as
    `float` does, so both paths read the same values."""
    start = len(text) - len(text.lstrip("\n"))  # empty lines before the header
    end = text.find("\n", start)
    limit = csv.field_size_limit()  # csv.reader refuses a longer field; a line's bytes bound its fields
    if not 0 <= end - start <= limit:
        return None
    header, xcols = _csv_header(text[start:end].split(","))
    body = text[end + 1:] if text.endswith("\n") else text[end + 1:] + "\n"
    # the reader drops fields beyond usecols, so the widths are counted here:
    # row r holds the r-th run of len(header) - 1 commas, all before its newline
    raw = np.frombuffer(body.encode(), np.uint8)
    breaks, commas = np.flatnonzero(raw == ord("\n")), np.flatnonzero(raw == ord(","))
    n, k = breaks.size, len(header) - 1
    if not n or commas.size != n * k or np.diff(breaks, prepend=-1).max() > limit:
        return None
    commas = commas.reshape(n, k)
    if not ((commas[:, 0] > np.r_[-1, breaks[:-1]]).all() and (commas[:, -1] < breaks).all()):
        return None
    col = {h: j for j, h in enumerate(header)}
    numeric = [col[h] for h in (*_NUMERIC, *xcols)]
    # one pass: each row's cluster_id as a Python str, then its float64 cells
    dtype = np.dtype([("cid", object), ("num", np.float64, (len(numeric),))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.StringIO(body), dtype, delimiter=",", comments=None,
                              usecols=[col["cluster_id"], *numeric], ndmin=1)
    except (ValueError, Warning):
        return None
    if len(rows) != n:
        return None
    return _dataset_from_table(list(map(str.strip, rows["cid"].tolist())), rows["num"])


def _csv_rows(text):
    """The dataset of CSV `text`, split into rows by `csv.reader` and read
    by Python's `float`; a fault raises the ParseError of the first faulty row."""
    try:
        rows = list(filter(None, csv.reader(io.StringIO(text, newline=""))))  # empty lines dropped
    except csv.Error as exc:  # a field over csv.field_size_limit(), or a NUL before Python 3.11
        raise ParseError(f"unreadable CSV: {exc}") from None
    if not rows:
        raise ParseError("no rows")
    header, xcols = _csv_header(rows[0])
    body = rows[1:]
    if not body:
        raise ParseError("no rows")
    if set(map(len, body)) != {len(header)}:
        _first_bad_row(header, body, xcols)

    # one column at a time through itemgetter: zip(*body) would make one
    # GC-tracked iterator per row and set off dozens of collections
    column = {h: operator.itemgetter(j) for j, h in enumerate(header)}
    columns = (*_NUMERIC, *xcols)
    table = np.empty((len(body), len(columns)))
    try:
        for j, col in enumerate(columns):
            table[:, j] = _float_column(body, column[col])
    except ValueError:
        _first_bad_row(header, body, xcols)
    dataset = _dataset_from_table(list(map(str.strip, map(column["cluster_id"], body))), table)
    if dataset is None:
        _first_bad_row(header, body, xcols)  # a treatment or a repeated unit
        _check_finite(table, columns)
    return dataset


def _dataset_from_table(cids, table):
    """The dataset of the rows' cluster ids and their float table, whose
    columns are unit_id, treatment, outcome and x1..xp; None when a treatment
    is not 0/1, a value is not finite or a (cluster_id, unit_id) pair repeats."""
    unit, treatment, outcome = table[:, 0], table[:, 1], table[:, 2]
    if not (((treatment == 0.0) | (treatment == 1.0)).all() and np.isfinite(table).all()):
        return None
    code_of = {c: k for k, c in enumerate(dict.fromkeys(cids))}  # in file order of first appearance
    codes = np.fromiter(map(code_of.__getitem__, cids), np.intp, count=len(cids))
    order = np.lexsort((unit, codes))  # by cluster, then unit_id; equal pairs end up adjacent
    sorted_codes, sorted_units = codes[order], unit[order]
    if ((sorted_codes[1:] == sorted_codes[:-1]) & (sorted_units[1:] == sorted_units[:-1])).any():
        return None
    return Dataset.from_arrays(table[order, 3:], treatment[order].astype(np.int8), outcome[order],
                               np.bincount(codes), code_of)


def _float_column(body, get):
    """The cells `get` picks from the rows of `body`, read by Python's float
    once stripped of surrounding whitespace, as one float64 array."""
    try:
        return np.fromiter(map(float, map(get, body)), np.float64, count=len(body))
    except ValueError:  # float() alone keeps U+001C..U+001F, which str.strip drops
        return np.fromiter(map(float, map(str.strip, map(get, body))), np.float64, count=len(body))


def _first_bad_row(header, body, xcols):
    """Raise the ParseError of the first data row, in file order, with a width,
    numeric, treatment 0/1 or duplicate-unit fault; within a row, the columns
    are checked in that order (unit_id, treatment, outcome, then x1..xp)."""
    idx = {h: j for j, h in enumerate(header)}
    first_row = {}  # (cluster_id, unit_id) -> the row that gave it
    for r, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", row=r)
        cell = {h: row[j].strip() for h, j in idx.items()}
        values = {}
        for col in (*_NUMERIC, *xcols):
            try:
                values[col] = float(cell[col])
            except ValueError:
                what = "covariate" if col in xcols else col
                raise ParseError(f"{what} is not numeric", row=r, column=col) from None
            if col == "treatment" and values[col] not in (0.0, 1.0):
                raise ParseError(f"treatment must be 0/1, got {cell[col]}", row=r, column=col)
        key = (cell["cluster_id"], values["unit_id"])
        if key in first_row:
            raise ParseError(
                f"duplicate unit: cluster_id {key[0]!r} with unit_id {cell['unit_id']} "
                f"is already on row {first_row[key]}",
                row=r,
            )
        first_row[key] = r


def _check_finite(table, columns):
    """ParseError naming the first data row (then column) of `table` that is NaN
    or infinite, in one vectorised pass over the parsed table."""
    bad = ~np.isfinite(table)
    if bad.any():
        r = int(bad.any(axis=1).argmax())
        col = columns[int(bad[r].argmax())]
        raise ParseError(f"{col} is not finite", row=r + 1, column=col)


def _load_json_dataset(path):
    doc = _load_json_file(path)
    entries = doc.get("clusters") if isinstance(doc, dict) else None
    if not entries:
        raise ParseError("no rows")
    clusters = []
    first_entry = {}  # cluster_id -> the entry that gave it
    for r, entry in enumerate(entries):
        for key in ("covariates", "treatments", "outcomes"):
            if not isinstance(entry, dict) or key not in entry:
                raise ParseError(f"cluster entry {r} is missing required field {key!r}")
        cid = entry.get("cluster_id")
        if cid in first_entry:
            raise ParseError(
                f"cluster entry {r} repeats cluster_id {cid!r} of entry {first_entry[cid]}"
            )
        first_entry[cid] = r
        y = _json_floats(r, "outcomes", entry["outcomes"])
        x = _json_floats(r, "covariates", entry["covariates"])
        a = _json_treatments(r, entry["treatments"])
        clusters.append(ClusterSample(covariates=x, treatments=a, outcomes=y, cluster_id=cid))
    return Dataset(clusters=tuple(clusters))


def _json_floats(r, key, values):
    """The float64 `key` of cluster entry `r`: per unit a JSON number (outcomes)
    or a list of them (covariates). A string, a `true`/`false` or a number
    with no finite float64 value is a parse error naming the entry and unit."""
    if not isinstance(values, list):
        raise ParseError(f"cluster entry {r}: {key} are not a list")
    for i, v in enumerate(values):
        for cell in v if isinstance(v, list) else (v,):
            if type(cell) not in (int, float):  # a bool is an int but not a number here
                raise ParseError(f"cluster entry {r}: {key} of unit {i} is not numeric")
            if not abs(cell) <= sys.float_info.max:  # NaN, +-inf, or an int beyond float64
                raise ParseError(f"cluster entry {r}: {key} of unit {i} is not finite")
    try:
        return np.array(values, dtype=np.float64)
    except ValueError:  # rows of different lengths
        raise ParseError(f"cluster entry {r}: {key} are not numeric") from None


def _json_treatments(r, values):
    """The int8 treatments of cluster entry `r`: a list of JSON numbers, each 0 or 1."""
    if not isinstance(values, list):
        raise ParseError(f"cluster entry {r}: treatments are not a list")
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"cluster entry {r}: treatment of unit {i} is not numeric")
        if v not in (0, 1):
            raise ParseError(f"cluster entry {r}: treatment of unit {i} must be 0/1, got {v!r}")
    return np.array(values, dtype=np.int8)


def write_dataset(dataset, path, fmt=None):
    """Inverse of load_dataset; round-trips exactly."""
    fmt = fmt or ("json" if str(path).endswith(".json") else "csv")
    if fmt == "json":
        payload = {
            "clusters": [
                {
                    "cluster_id": c.cluster_id,
                    "covariates": c.covariates.tolist(),
                    "treatments": c.treatments.tolist(),
                    "outcomes": c.outcomes.tolist(),
                }
                for c in dataset.clusters
            ]
        }
        _atomic_write(path, json.dumps(payload, indent=1).encode())
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    p = dataset.p
    writer.writerow(["cluster_id", "unit_id", "treatment", "outcome"] + [f"x{j+1}" for j in range(p)])
    for c in dataset.clusters:
        for i in range(c.size):
            writer.writerow(
                [c.cluster_id, i, int(c.treatments[i]), repr(float(c.outcomes[i]))]
                + [repr(float(v)) for v in c.covariates[i]]
            )
    _atomic_write(path, buf.getvalue().encode())


# ---------- artifacts and manifests ----------


@dataclass
class RunManifest:
    command: str
    inputs: dict
    seed: int
    version: str
    timestamp: str
    output_digest: str = ""


def _new_manifest(argv, inputs, seed):
    return RunManifest(
        command="clusterbal " + " ".join(argv),
        inputs=inputs,
        seed=int(seed),
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _atomic_write(path, data):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _json_text(obj, pad="\n"):
    """`json.dumps(obj, indent=1, sort_keys=True, default=float, allow_nan=False)`
    at the indent of `pad`, with every NaN or infinite float written as null.
    A list of finite floats (the weights) takes one call of json's C encoder,
    whose ", " separators become line breaks: a float's repr holds no comma."""
    inner = pad + " "
    if isinstance(obj, dict):
        items = [f"{_json_key(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == {float}:
            try:
                text = json.dumps(obj, allow_nan=False)
                return "[" + inner + text[1:-1].replace(", ", "," + inner) + pad + "]"
            except ValueError:  # a NaN or an infinity among them
                pass
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        obj = None
    return json.dumps(obj, default=float, allow_nan=False)


def _json_key(key):
    """A dict key as json writes it: a string, or the JSON text of a number,
    bool or None in quotes."""
    return json.dumps(key if isinstance(key, str) else json.dumps(key, allow_nan=False))


def write_json_artifact(path, result, manifest):
    """Strict (RFC 8259) JSON: NaN and infinite floats are written as null."""
    text = _json_text(result)
    manifest.output_digest = _digest(text.encode())
    # the document is {"manifest": ..., "result": ...} written the same way; a
    # value one level down is its own text indented by one more space (JSON
    # escapes newlines inside strings, so every newline is a line break)
    nest = lambda t: t.replace("\n", "\n ")  # noqa: E731
    doc = f'{{\n "manifest": {nest(_json_text(asdict(manifest)))},\n "result": {nest(text)}\n}}'
    _atomic_write(path, doc.encode())


def write_csv_artifact(path, rows, fieldnames, manifest):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})
    data = buf.getvalue().encode()
    _atomic_write(path, data)
    manifest.output_digest = _digest(data)
    _atomic_write(
        path + ".manifest.json",
        json.dumps(asdict(manifest), indent=1, sort_keys=True, allow_nan=False).encode(),
    )


def _write_artifacts(out_dir, artifacts, manifest):
    """Write each `stem: (document, rows, fieldnames)` of a command as
    <stem>.json when it has a document and <stem>.csv (with its manifest
    sidecar) when it has rows; fieldnames None takes the keys of the first row."""
    for stem, (doc, rows, fieldnames) in artifacts.items():
        path = os.path.join(out_dir, stem)
        if doc is not None:
            write_json_artifact(path + ".json", doc, manifest)
        if rows is not None:
            write_csv_artifact(path + ".csv", rows, fieldnames or list(rows[0]), manifest)


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _read_text(path, encoding="utf-8", newline=None):
    """The text of the UTF-8 file at `path`; a byte that is not UTF-8 is a
    ParseError naming the file."""
    try:
        with open(path, encoding=encoding, newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.object[exc.start]:#04x} is not UTF-8 text") from None


def _load_json_file(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None


# ---------- subcommands ----------


def _resolve_seed(args):
    if args.seed is not None:
        return int(args.seed)
    return int(np.random.SeedSequence().entropy % (2**63))


def _cmd_estimate(args, seed):
    dataset = load_dataset(args.dataset, args.format)
    weight = weight_from_json(_load_json_file(args.policy))
    propensity = (
        propensity_from_json("unknown")
        if args.propensity == "unknown"
        else propensity_from_json(_load_json_file(args.propensity))
    )
    names = list(dict.fromkeys(args.estimator))  # a repeated estimator is fitted once
    structure = mapping = None
    if args.structure:
        structure = build_structure(_load_json_file(args.structure), dataset)
    if args.exposure_mapping:
        mapping = exposure_from_spec(_load_json_file(args.exposure_mapping))
    exit_code = EXIT_OK
    artifacts = {}
    results = {}
    rows = []
    for name in names:
        fit, var = fit_estimator(
            name, dataset, weight, propensity, structure, mapping,
            level=args.level, allow_infeasible=args.allow_infeasible,
        )
        if not fit.feasible:
            report = imbalance_report(dataset, structure, weight, fit)
            results["imbalance"] = report.to_dict()
            artifacts["imbalance"] = (None, report.rows(), None)
            if not args.allow_infeasible:
                exit_code = EXIT_INFEASIBLE
        entry = fit.to_dict()
        if var is not None:
            entry["variance"] = var.to_dict()
        results[name] = entry
        rows.append(
            {
                "estimator": name,
                "point": fit.point,
                "feasible": fit.feasible,
                "sigma2_hat": var.sigma2_hat if var else float("nan"),
                "ci_low": var.ci_low if var else float("nan"),
                "ci_high": var.ci_high if var else float("nan"),
                "level": args.level,
            }
        )
    artifacts["estimates"] = (results, rows, None)
    return exit_code, artifacts


def _cmd_balance_report(args, seed):
    dataset = load_dataset(args.dataset, args.format)
    weight = weight_from_json(_load_json_file(args.policy))
    structure = build_structure(_load_json_file(args.structure), dataset)
    fit = balancing_fit(dataset, structure, weight)
    report = imbalance_report(dataset, structure, weight, fit, threshold=args.threshold)
    doc = report.to_dict()
    doc["feasible"] = fit.feasible
    doc["point"] = fit.point
    return EXIT_OK, {"balance_report": (doc, report.rows(), None)}


def _cmd_select(args, seed):
    dataset = load_dataset(args.dataset, args.format)
    weight = weight_from_json(_load_json_file(args.policy))
    specs = _load_json_file(args.candidates)
    candidates = [build_structure(s, dataset) for s in specs]
    report = select_structure(dataset, weight, candidates, alpha=args.alpha)
    rows = [
        {
            "candidate": report.labels[l],
            "reference": report.labels[-1],
            "statistic": report.statistics[l],
            "p_value": report.p_values[l],
            "chosen": l == report.chosen,
        }
        for l in range(len(report.statistics))
    ]
    if not rows:
        rows = [
            {
                "candidate": report.labels[-1],
                "reference": report.labels[-1],
                "statistic": float("nan"),
                "p_value": float("nan"),
                "chosen": True,
            }
        ]
    return EXIT_OK, {"selection": (report.to_dict(), rows, None)}


def _config_from_file(path, seed):
    """(DGPConfig, sweep axis, sweep values) of a --config document."""
    doc = _load_json_file(path)
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{path}: config document must be a JSON object")
    axis = doc.pop("axis", "n")
    values = doc.pop("values", (doc.get("n", 300),))
    if not isinstance(values, (list, tuple)):
        raise InvalidSpec(f"{path}: config field 'values' must be a list, got {values!r}")
    doc.setdefault("n", 300)
    doc["seed"] = seed
    known = {f.name for f in fields(DGPConfig)}
    for key in doc:
        if key not in known:
            raise InvalidSpec(f"{path}: unknown config field {key!r}")
    try:
        cfg = DGPConfig(**doc)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{path}: {exc}") from None
    return cfg, axis, sweep_values(axis, values, f"{path}: config")


def _simulate_config(args, seed):
    if args.preset:
        cfg, axis, values = preset_config(args.preset, seed=seed)
    else:
        cfg, axis, values = _config_from_file(args.config, seed)
    if getattr(args, "n", None) is not None:  # simulate's --n; calibrate has none
        axis, values = "n", tuple(args.n)
    return cfg, axis, values


def _cmd_simulate(args, seed):
    cfg, axis, values = _simulate_config(args, seed)
    estimators = tuple(args.estimators.split(",")) if args.estimators else DEFAULT_ESTIMATORS
    rows = sweep(
        cfg,
        axis,
        values,
        reps=args.reps,
        estimators=estimators,
        level=args.level,
        parallel=args.parallel,
        workers=args.workers,
        truth_draws=args.truth_draws,
    )
    fieldnames = [
        axis,
        "estimator",
        "bias",
        "sd",
        "coverage",
        "ci_length",
        "feasibility_rate",
        "n_used",
        "errors",
        "reps",
        "true_mu",
    ]
    return EXIT_OK, {"simulate": (rows, rows, fieldnames)}


def _cmd_calibrate(args, seed):
    cfg, _, _ = _simulate_config(args, seed)
    if args.snr_target is not None:
        cfg = replace(cfg, snr_target=args.snr_target)
    report = calibrate_snr(cfg)
    doc = {
        "gamma": report.gamma,
        "snr_at_unit_gamma": report.snr_at_unit_gamma,
        "se_gamma": report.se_gamma,
        "draws": report.draws,
        "snr_target": cfg.snr_target,
    }
    print(f"gamma = {report.gamma!r} (snr at gamma=1: {report.snr_at_unit_gamma!r})")
    return EXIT_OK, {"calibration": (doc, None, None)}


# ---------- parser ----------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    parser = _Parser(prog="clusterbal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=".")

    def with_dataset(p):
        common(p)
        p.add_argument("--format", choices=["csv", "json"], default=None, help="dataset file format")
        p.add_argument("--dataset", required=True)
        p.add_argument("--policy", required=True, help="counterfactual weight JSON spec")

    p_est = sub.add_parser("estimate", help="fit weighting estimators with CIs")
    with_dataset(p_est)
    p_est.add_argument("--propensity", default="unknown", help="JSON spec path or 'unknown'")
    p_est.add_argument("--structure", default=None, help="structure JSON spec")
    p_est.add_argument("--exposure-mapping", default=None, help="exposure mapping JSON spec")
    p_est.add_argument(
        "--estimator",
        action="append",
        required=True,
        choices=list(ESTIMATORS),
    )
    p_est.add_argument("--level", type=float, default=0.95)
    p_est.add_argument("--allow-infeasible", action="store_true")

    p_bal = sub.add_parser("balance-report", help="imbalance diagnostics for a balancing fit")
    with_dataset(p_bal)
    p_bal.add_argument("--structure", required=True)
    p_bal.add_argument("--threshold", type=float, default=0.10)

    p_sel = sub.add_parser("select", help="data-adaptive structure selection")
    with_dataset(p_sel)
    p_sel.add_argument("--candidates", required=True, help="JSON list of structure specs")
    p_sel.add_argument("--alpha", type=float, default=0.05)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo sweep")
    common(p_sim)
    p_sim.add_argument("--preset", choices=list(PRESETS))
    p_sim.add_argument("--config", help="DGP config JSON")
    p_sim.add_argument("--reps", type=int, default=500)
    p_sim.add_argument("--estimators", default=None, help="comma-separated estimator names")
    p_sim.add_argument("--level", type=float, default=0.95)
    p_sim.add_argument("--parallel", action="store_true")
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--n", type=int, nargs="+", default=None, help="override the n axis")
    p_sim.add_argument("--truth-draws", type=int, default=400_000, help="cluster draws for the truth Monte Carlo")

    p_cal = sub.add_parser("calibrate", help="signal scale for an SNR target")
    common(p_cal)
    p_cal.add_argument("--preset", choices=list(PRESETS))
    p_cal.add_argument("--config", help="DGP config JSON")
    p_cal.add_argument("--snr-target", type=float, default=None)
    return parser


_COMMANDS = {
    "estimate": _cmd_estimate,
    "balance-report": _cmd_balance_report,
    "select": _cmd_select,
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
}


# the arguments recorded as a manifest's inputs, those of them a subcommand has
_INPUTS = ("dataset", "policy", "propensity", "structure", "exposure_mapping", "candidates",
           "preset", "config")


def run(argv):
    """Parse and execute; returns the process exit code. Each warning the
    command raises is printed as one `warning: ...` line on stderr. The
    command's artifacts, all under one manifest, are written once it has
    returned, so a command that raises writes none."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command in ("simulate", "calibrate"):
        if not args.preset and not args.config:
            sys.stderr.write("error: need --preset or --config\n")
            return EXIT_USAGE
    seed = _resolve_seed(args)
    inputs = {name: vars(args)[name] for name in _INPUTS if name in vars(args)}
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
            exit_code, artifacts = _COMMANDS[args.command](args, seed)
        _write_artifacts(args.out_dir, artifacts, _new_manifest(argv, inputs, seed))
        return exit_code
    except InfeasibleFit as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: invalid JSON: {exc}\n")
        return EXIT_ERROR
    except (ClusterbalError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
