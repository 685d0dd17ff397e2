#!/usr/bin/env python3
"""Benchmark of the schrodloc command line, run in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. One pass calls
`schrodloc.cli.main` once per subcommand of the workload (see spec.py);
passes repeat until the next one would end after --seconds, and the
reported times are medians over passes.

--trace 0 reports the end-to-end metrics: wall_s (pass time), setup_s
(time inside field generation, geometry, assembly, preconditioner
construction and contraction estimate / smoother composition, timed only
at those calls), both rescaled to a reference machine speed sampled during
the pass (speed.py), and peak_rss_mb. --trace 1 alternates untraced and
traced passes and reports the per-layer metrics from the traced ones, plus
the patch-kernel micro-measurement and the import time of `schrodloc.cli`.
Every invocation's outputs are checked (checks.py); failures count into
`failed`. The last line of stdout is the JSON result; artifacts, the
result with its environment record and the span trace go to
`.perfbench_runs/<workload>/` in the checkout.
"""

import os

# BLAS threads are pinned before numpy loads. On a shared 2-vCPU Xeon VM
# (2.1 GHz), 2 threads doubled the green-decay pass time and 1 kept it steady.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
MIN_PASSES = 3  # untraced; a traced run makes at least 2 untraced + 2 traced


def die(message):
    """Exit with status 2 and no result line."""
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import schrodloc from the checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import schrodloc.cli
    except ImportError as exc:
        die("cannot import schrodloc from %s: %s" % (src, exc))
    if src.resolve() not in Path(schrodloc.cli.__file__).resolve().parents:
        die("schrodloc imported from %s, not from %s" % (schrodloc.cli.__file__, src))
    return schrodloc.cli


def environment(seed, workload_seed):
    import numpy as np
    import scipy

    from perfbench import speed

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "workload_seed": workload_seed,
        "loadavg_start": list(os.getloadavg()),
        "speed_nominal_s": speed.PROBE_NOMINAL_S,
    }


class Workload:
    """The invocations of one workload and the state its passes share."""

    def __init__(self, name, seed, cli_main):
        from perfbench import spec

        self.name = name
        self.wl = spec.WORKLOADS[name]
        self.seed = spec.workload_seed(name, seed)
        self.main = cli_main
        self.root = RUNS / name
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        config = []
        if self.wl["config"] is not None:
            path = self.root / "config.json"
            path.write_text(json.dumps(self.wl["config"], indent=2) + "\n")
            config = ["--config", str(path)]
        self.invocations = []
        for argv in self.wl["subcommands"]:
            outdir = self.root / argv[0]
            full = argv + config + ["--seed", str(self.seed), "--out", str(outdir)]
            self.invocations.append((argv[0], full, outdir))
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, tracer, instrumentation, sampler=None):
        """One timed pass; returns (wall seconds, spans, artifact bytes, files).

        With a sampler, the machine speed is sampled during the pass and the
        sampler's own time is left out of the returned wall time.
        """
        from perfbench import checks

        for _, _, outdir in self.invocations:
            shutil.rmtree(outdir, ignore_errors=True)
        gc.collect()
        tracer.reset()
        results = []
        instrumentation.install()
        if sampler is not None:
            sampler.start()
        try:
            t0 = time.perf_counter()
            root = tracer.open("bench.pass")
            for sub, argv, outdir in self.invocations:
                idx = tracer.open("cli.main")
                tracer.spans[idx].info = {"subcommand": sub}
                err = io.StringIO()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        rc = self.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    rc = -1
                    err.write(traceback.format_exc())
                finally:
                    tracer.close(idx)
                results.append((sub, rc, outdir, err.getvalue()))
            tracer.close(root)
            wall = time.perf_counter() - t0
        finally:
            if sampler is not None:
                sampler.stop()
            instrumentation.uninstall()
        if sampler is not None:
            wall -= sampler.handler_time(t0, t0 + wall)
        n_bytes = n_files = 0
        for sub, rc, outdir, err in results:
            self.attempted += 1
            problems = checks.check_invocation(sub, rc, outdir, self.reference)
            if problems:
                self.failed += 1
                if err.strip():
                    problems.append("%s stderr: %s" % (sub, err.strip()[-500:]))
                self.problems.extend(problems)
            else:
                names = self.reference[sub]
                b, f = checks.artifact_sizes(outdir, names)
                n_bytes, n_files = n_bytes + b, n_files + f
        return wall, list(tracer.spans), n_bytes, n_files


def measure(name, seed, seconds, traced, cli_main):
    """Run the passes of one workload; returns (result, record with environment)."""
    from perfbench import layers, spec, speed, tracing

    wl = Workload(name, seed, cli_main)
    env = environment(seed, wl.seed)
    tracer = tracing.Tracer()
    capture = layers.Capture()
    boundary = tracing.Instrumentation(tracer, full=False)
    full = tracing.Instrumentation(tracer, full=True, hooks=capture.hooks())
    walls, setups, traced_rows, traced_spans = [], [], [], []
    raw_walls, raw_setups, scales = [], [], []
    sampler = speed.SpeedSampler()
    t_start = time.perf_counter()
    n_pass = 0
    while True:
        is_traced = traced and n_pass % 2 == 1
        wall, spans, n_bytes, n_files = wl.run_pass(
            tracer, full if is_traced else boundary, None if is_traced else sampler
        )
        n_pass += 1
        if is_traced:
            row = layers.pass_metrics(spans, wall)
            row["reports.bytes"], row["reports.files"] = n_bytes, n_files
            traced_rows.append(row)
            traced_spans.append([s.to_json() for s in spans])
            note = "traced"
        else:
            setup = sum(
                s.duration - sampler.handler_time(s.start, s.end)
                for s in tracing.outer_spans(spans, tracing.SETUP_NAMES)
            )
            scale = sampler.scale()
            walls.append(wall * scale)
            setups.append(setup * scale)
            raw_walls.append(wall)
            raw_setups.append(setup)
            scales.append(scale)
            note = "setup %.4f s, speed scale %.3f from %d samples" % (
                setup, scale, len(sampler.samples))
        print("pass %d: %.4f s, %s" % (n_pass, wall, note), file=sys.stderr)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(raw_walls + [r["trace.wall_s"] for r in traced_rows])
        enough = n_pass >= (4 if traced else MIN_PASSES)
        if enough and elapsed + typical > seconds:
            break

    if not traced:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = {k: v[0] for k, v in spec.END_TO_END.items()}
    else:
        metrics = {k: statistics.median(r[k] for r in traced_rows) for k in traced_rows[0]}
        base = statistics.median(raw_walls)
        metrics["trace.base_wall_s"] = base
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"] - base) / base
        metrics.update(patch_kernel(capture, wl.seed))
        metrics["cli.import_s"] = import_time()
        units = {k: v[0] for k, v in spec.PER_LAYER.items()}
    missing = sorted(set(units) ^ set(metrics))
    if missing:
        raise RuntimeError("metrics and catalogue differ: %s" % missing)
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in sorted(metrics)},
    }
    record = {
        "workload": name,
        "trace": int(traced),
        "environment": env,
        "passes": n_pass,
        "untraced_walls_s": raw_walls,
        "setups_s": raw_setups,
        "speed_scales": scales,
        "scaled_walls_s": walls,
        "scaled_setups_s": setups,
        "problems": wl.problems,
        "result": result,
    }
    (wl.root / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    if traced:
        doc = {"environment": env, "passes": traced_spans}
        (wl.root / "trace.json").write_text(json.dumps(doc) + "\n")
    for p in wl.problems:
        print("check failed: %s" % p, file=sys.stderr)
    return result, record


def patch_kernel(capture, seed):
    """Patch-kernel timings on the largest system of the last traced pass.

    A pass that assembles nothing (gen) has its last generated field
    assembled at m=2; a pass that builds no preconditioner on that system
    has its patches built directly.
    """
    from perfbench import layers
    from schrodloc.fem import SubgridSpec, assemble
    from schrodloc.schwarz import SchwarzPreconditioner, build_patches

    sys_ = capture.system
    if sys_ is None:
        sys_ = assemble(capture.field, SubgridSpec(grid=capture.field.grid, m=2))
    prec = capture.prec
    if prec is None:
        prec = SchwarzPreconditioner(patches=build_patches(sys_), theta=1.0, mode="theoretical")
    return layers.patch_kernel(prec, sys_, seed)


def import_time():
    """Median time for a fresh interpreter to import schrodloc.cli."""
    code = (
        "import time; t = time.perf_counter(); import schrodloc.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise RuntimeError("import of schrodloc.cli failed: %s" % proc.stderr.strip())
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    from perfbench import spec

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                sys.stderr.write(proc.stderr)
                die("%s --trace %d printed no result" % (name, traced))
            res = json.loads(lines[-1])
            print("== %s (trace %d): correct=%s attempted=%d failed=%d"
                  % (name, traced, res["correct"], res["attempted"], res["failed"]))
            if not res["correct"]:
                sys.stderr.write(proc.stderr)
            for key, m in res["metrics"].items():
                moves = spec.PER_LAYER[key][2] if traced else ""
                print("   %-28s %14.6g %-8s %s" % (key, m["value"], m["unit"], moves))
                combined["metrics"]["%s:%s" % (name, key)] = m
            combined["correct"] = combined["correct"] and res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
    return combined


def main(argv=None):
    from perfbench import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        die("cannot read BENCHMARK.json: %s" % exc)
    problems = spec.check_benchmark_json(doc)
    if problems:
        die("BENCHMARK.json disagrees with spec.py: %s" % "; ".join(problems))
    seconds = args.seconds if args.seconds is not None else doc["run_seconds"]

    cli = import_package()
    os.environ.pop(cli.OUT_ROOT_ENV, None)
    if args.workload == "all":
        result = run_all(args.seed, seconds)
    else:
        result, record = measure(args.workload, args.seed, seconds, bool(args.trace), cli.main)
        print("environment: %s" % json.dumps(record["environment"], sort_keys=True))
        print("%s: %d passes, %d invocations, %d failed" % (
            args.workload, record["passes"], result["attempted"], result["failed"]))
        for key, m in result["metrics"].items():
            print("  %-28s %14.6g %s" % (key, m["value"], m["unit"]))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
