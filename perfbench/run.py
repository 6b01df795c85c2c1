"""Layered benchmark of polar_derham: build, verify and field sampling.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload build-verify --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one after another

The package is imported from the checkout's `src/` directory; without it the
benchmark exits with code 2 and prints no result.  BLAS thread pools are
pinned to one thread before numpy is imported.

Workloads (one process each; their set-up and round are in workloads.py):

* build-verify  `cli.main(["build", ...])` at (12,12,6) and (16,16,8), then
                every matrix file of both bundles reloaded with read_triplet;
                then `cli.main(["verify", ...])` on five cases up to (8,8,6)
                and the two negative controls, which must exit with 1.
* field-sample  one (32,32,16) complex built in the set-up; rounds of 5
                reduced and tensor-side operator applications and 25 pointwise
                pushforwards per level.

A round takes a few seconds at most, so the median is taken over many.

A run repeats the set-up `SETUP_REPEATS` times, then runs rounds until
`--seconds` have passed (at least one).  End-to-end metrics, printed with
`--trace 0`:

* setup_s      median over the repeats of: importing the package in a fresh
               interpreter plus the workload's one-off set-up (a warm-up
               command; for field-sample the complex build and warm-up).
* round_s      median timed seconds of one round (checks excluded).
* peak_rss_mb  ru_maxrss of the benchmark process.

The workload's own figures (build_s, load_s, verify_s, sample_pts_per_s,
sample_pt_p50_ms, sample_pt_p99_ms, apply_per_s, error_rate) are printed by
name on the lines before the result.  The last line is the JSON result;
`failed / attempted` is the error rate.

With `--trace 1` the package's functions are wrapped in spans (tracer.py)
and the metrics are per-layer figures: the median over traced rounds plus
the median over traced set-ups.  Untraced and traced rounds alternate, at
least three of them; the median traced round minus the median untraced
round after the first is `trace.overhead_s`.  Spans are written to
`.perfbench_out/` in the checkout.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "POLAR_DERHAM_THREADS")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("build-verify", "field-sample")

# Every workload reports every end-to-end metric, so these three are defined
# for all workloads and never read 0; the figures that belong to one workload
# only are printed by name instead (see `Workload.summary`).
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}

SUITES = ("dimensions", "dta", "complex_property", "commutation", "cohomology",
          "partition_of_unity", "smoothness_probe")
PER_LAYER = (
    [f"{layer}.self_s" for layer in ("bsplines", "tensor", "extraction", "incidence",
                                     "geometry", "torus", "verification", "iotools", "cli")]
    + ["cli.main_s", "cli.main_calls", "torus.build_s",
       "tensor.build_s", "extraction.assemble_s", "incidence.build_s", "geometry.maps_s",
       "extraction.nnz", *(f"extraction.nnz.{e}" for e in
                           ("E000", "E100", "E010", "E001", "E011", "E101", "E110", "E111")),
       "incidence.nnz", "incidence.nnz.D0", "incidence.nnz.D1", "incidence.nnz.D2",
       "iotools.write_s", "iotools.bytes_written", "iotools.read_s", "iotools.read_calls",
       "verification.run_s", *(f"verification.{suite}_s" for suite in SUITES),
       "incidence.cohomology_s", "incidence.dense_bytes", "incidence.commutation_s",
       "incidence.preimage_s", "bsplines.dta_s", "bsplines.dense_bytes",
       "verification.dense_bytes", "geometry.probe_s",
       "geometry.pushforward_s", "geometry.pushforward_calls", "geometry.jacobian_s",
       "geometry.map_eval_s", "extraction.basis_values_s", "extraction.basis_values_calls",
       "tensor.eval_basis_s", "bsplines.eval_basis_s", "bsplines.eval_basis_calls",
       "torus.reduced_apply_s", "torus.reduced_apply_calls", "torus.tensor_apply_s",
       "torus.to_tensor_s", "tensor.apply_s", "tensor.apply_calls",
       "tensor.operator_matrix_s", "tensor.operator_matrix_calls",
       "trace.spans", "trace.overhead_s"]
)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "B"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def import_in_fresh_interpreter():
    subprocess.run([sys.executable, "-c", "import polar_derham"], env=child_env(),
                   cwd=ROOT, check=True, capture_output=True, timeout=120)


def environment(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_threads": int(THREADS),
        "warmup": ("each set-up repeat runs one untimed warm-up: a (4,4,3) build, "
                   "reload and verify, or for field-sample one operator round "
                   "and 25 pushforwards per level after the build"),
        "setup_repeats": SETUP_REPEATS,
    }


def recording(tracer, run):
    return tracer.recording(run) if tracer else contextlib.nullcontext()


def run_workload(args):
    import numpy as np
    import scipy

    import polar_derham
    if Path(polar_derham.__file__).resolve().parent != SRC / "polar_derham":
        raise SystemExit(f"polar_derham imported from {polar_derham.__file__}, not {SRC}")
    from tracer import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
    try:
        setup_s = []
        for repeat in range(SETUP_REPEATS):
            with recording(tracer, f"setup-{repeat}"):
                start = perf_counter()
                import_in_fresh_interpreter()
                workload.setup()
                setup_s.append(perf_counter() - start)

        rounds = {False: [], True: []}
        begin = perf_counter()
        index = 0
        while index < (3 if tracer else 1) or perf_counter() - begin < args.seconds:
            traced = bool(tracer) and index % 2 == 1
            gc.collect()
            with recording(tracer if traced else None, f"round-{index}"):
                rounds[traced].append((index, workload.run_round(index)))
            index += 1
        workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(np, scipy)
    print("env " + json.dumps(env))
    summary = workload.summary()
    summary["error_rate"] = (workload.failed / max(workload.attempted, 1), "ratio")
    for name, (value, unit) in summary.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for message in workload.messages[:20]:
        print(f"FAIL {message}")

    if tracer:
        metrics = layer_metrics(tracer, rounds, SETUP_REPEATS)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "env": env, **tracer.dump()}))
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "round_s": statistics.median(s for _, s in rounds[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"rounds {len(rounds[False])} setup_repeats {SETUP_REPEATS}")
    units = END_TO_END if not tracer else {m: unit_of(m) for m in PER_LAYER}
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def layer_metrics(tracer, rounds, setup_repeats):
    """Median over traced rounds plus median over traced set-ups, per metric."""
    per_round = [tracer.run_metrics(f"round-{i}") for i, _ in rounds[True]]
    per_setup = [tracer.run_metrics(f"setup-{r}") for r in range(setup_repeats)]
    metrics = {}
    for name in PER_LAYER:
        metrics[name] = (statistics.median(m.get(name, 0.0) for m in per_round)
                         + statistics.median(m.get(name, 0.0) for m in per_setup))
    # The first round of a process runs cold, so it only warms up.
    metrics["trace.overhead_s"] = (statistics.median(s for _, s in rounds[True])
                                   - statistics.median(s for _, s in rounds[False][1:]))
    return metrics


def run_all(args):
    """Every workload in its own process; their lines pass through and the
    last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "polar_derham" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'polar_derham'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        for var in THREAD_VARS:
            os.environ[var] = THREADS
        sys.path.insert(0, str(SRC))
        result = run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
