"""Run one benchmark workload (or all of them) against clusterbal in ./src.

    python3 perfbench/run.py --workload sim-knn5 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the root of a checkout. `--trace 0` prints the end-to-end metrics
of BENCHMARK.json, `--trace 1` the per-layer metrics of a traced run. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; every run also writes a labelled result
file under perfbench/results/<label>/. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports and inputs

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from datetime import datetime, timezone  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("sim-knn5", "sim-additive", "analysis-n3000", "wproj-small")
SETUP_SAMPLES = 3  # set-up is repeated in fresh processes and its median reported
BLAS_THREADS = "1"  # one BLAS thread: within nproc, and steadier on a shared host

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json at the checkout root: {exc}")


def import_program():
    """Import clusterbal from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "clusterbal", "__init__.py")):
        fail(f"no clusterbal package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import clusterbal

    if os.path.dirname(os.path.abspath(clusterbal.__file__)) != os.path.join(SRC, "clusterbal"):
        fail(f"imported clusterbal from {clusterbal.__file__}, not from {SRC}")
    return clusterbal


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed closed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="local", help="result files go to perfbench/results/<label>/")
    # internal: a set-up-only child, and set-up samples taken by a parent process
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-samples", default="", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_child(args):
    """Set-up seconds of one fresh process (import + inputs), measured by itself."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def environment(clusterbal):
    import numpy
    import scipy
    from clusterbal import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "clusterbal": clusterbal.__version__,
        "kernel_backend": _kernels.active_backend(),
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def per_layer_metrics(tracer, traced, untraced):
    """Per-layer values per traced round, from the spans and counters."""
    n = len(traced)
    times = tracer.layer_times()
    counts = tracer.counts
    out = {}
    for layer, (_, self_s, _) in times.items():
        if layer.startswith("op."):
            continue
        out[("kernels.busy" if layer == "kernels" else layer) + "_s"] = self_s / n
    for name, amount in counts.items():
        if name != "estimators.design_fits":
            out[name] = amount / n
    fits, decomps = counts.get("estimators.design_fits", 0), counts.get("numerics.design_ops_calls", 0)
    out["numerics.fits_per_decomposition"] = fits / decomps if decomps else 0.0
    out["trace.untraced_s"] = sum(s for k, (_, s, _) in times.items() if k.startswith("op.")) / n
    out["trace.spans"] = len(tracer.spans) / n
    t_on = statistics.median(sum(r.values()) for r in traced)
    t_off = statistics.median(sum(r.values()) for r in untraced)
    out["trace.overhead_pct"] = 100.0 * (t_on / t_off - 1.0)
    return out


def run_one(args, spec):
    clusterbal = import_program()
    from tracing import Tracer

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    started = datetime.now(timezone.utc).isoformat()
    try:
        state = wl.setup(args.seed, workdir)
        setup = [time.perf_counter() - _T0]
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0]}))
            return None
        once = wl.once(state)

        tracer = Tracer() if args.trace else None
        rounds, first, mismatched = [], None, []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            if traced:
                tracer.install()
            try:
                times, out = wl.round(state, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if first is None:
                first = out
            mismatched.append(sorted(wl.differs(first, out)))
            rounds.append({"times": times, "traced": traced})
            if time.perf_counter() >= deadline and (not args.trace or len(rounds) >= 2):
                break
        rss = peak_rss_mb()
        verdicts = wl.verify(state, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.setup_samples:
        setup += [float(v) for v in args.setup_samples.split(",")]
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_child(args))

    # Every round attempts the same ops; an op fails in a round when a check
    # of the first round's output fails or when the round's output differs.
    failed_first = {v.op for v in verdicts if not v.ok}
    failed = sum(len(failed_first | set(diff)) for diff in mismatched)
    attempted = len(rounds) * len(wl.ops)
    correct = all(v.ok or v.known_fault for v in verdicts) and not any(mismatched)

    untraced = [r["times"] for r in rounds if not r["traced"]]
    named, slots = wl.metrics(once, untraced)
    slots.update(setup_s=statistics.median(setup), peak_rss_mb=rss)
    if args.trace:
        traced = [r["times"] for r in rounds if r["traced"]]
        values = per_layer_metrics(tracer, traced, untraced)
        # a layer the workload never reaches reads 0
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(slots[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {
        "label": args.label,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "environment": environment(clusterbal),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "ops_per_round": list(wl.ops),
        "rounds": rounds,
        "setup_samples_s": setup,
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": metrics,
        "checks": [v.__dict__ for v in verdicts],
        "mismatched_rounds": [i for i, d in enumerate(mismatched) if d],
    }
    if args.trace:
        result["layers"] = {k: {"inclusive_s": i, "self_s": s, "calls": c}
                            for k, (i, s, c) in sorted(tracer.layer_times().items())}
        result["counts"] = tracer.counts
    write_result(result)
    report(result)
    return result


def write_result(result):
    stamp = result["started"].replace(":", "").replace("-", "").replace("+0000", "Z")
    out_dir = os.path.join(HERE, "results", result["label"])
    os.makedirs(out_dir, exist_ok=True)
    name = f"{stamp}_{result['workload']}_seed{result['seed']}_trace{result['trace']}_{os.getpid()}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def report(result):
    """Human-readable lines; the caller prints the JSON line last."""
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']} "
          f"({len(result['rounds'])} rounds of {len(result['ops_per_round'])} ops)")
    for v in result["checks"]:
        if not v["ok"]:
            cause = f" [known fault: {v['known_fault']}]" if v["known_fault"] else " [UNEXPECTED]"
            print(f"  FAILED {v['op']}: {v['check']}: {v['detail']}{cause}")
    if not result["trace"]:
        for name, m in result["named_metrics"].items():
            print(f"  {name:22s} {m['value']:.6g} {m['unit']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")


def run_all(args):
    """Each workload in its own process, one at a time; this process takes the
    extra set-up samples so that at most two processes exist at once."""
    summary = []
    for name in WORKLOAD_NAMES:
        sub = argparse.Namespace(**{**vars(args), "workload": name})
        samples = [setup_child(sub) for _ in range(SETUP_SAMPLES - 1)]
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--label", args.label,
               "--setup-samples", ",".join(repr(s) for s in samples)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        summary.append(json.loads(lines[-1]))
    print(json.dumps({
        "correct": all(s["correct"] for s in summary),
        "attempted": sum(s["attempted"] for s in summary),
        "failed": sum(s["failed"] for s in summary),
        "workloads": dict(zip(WORKLOAD_NAMES, summary)),
    }))


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        run_all(args)
        return
    result = run_one(args, spec)
    if result is not None:
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
