"""Benchmark of the pbfopt chain: one workload, measured for a fixed time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 10 --trace 0

Workloads (see bench.py): ``train``, ``design`` and ``validate``.  A run
repeats the workload's seeded pass until ``--seconds`` have passed (at
least one pass), checks every pass's outputs, prints a table of the
metrics with their units and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` untraced and traced passes alternate, the spans are
written to ``.bench_build/perfbench/trace-<workload>.json`` and the
metrics are the per-layer ones.  ``--smoke`` swaps the nominal
configuration for a synthetic one that runs in seconds (for tests).
"""

import os
import time

_T0 = time.perf_counter()  # set-up probes time imports from here

# One BLAS thread keeps the process on one CPU, whose speed the reference
# kernel samples (see refclock.py).  With two, the second thread mostly
# spins on design's small matrix products: wall time drops by about 10%,
# but the sampler cannot see that CPU and runs spread by 18%.  Children
# inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SAMPLES = 5
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 600


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "design", "validate"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="synthetic, seconds-long run")
    # internal: one set-up sample in a fresh interpreter, and the fixture build
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--build-fixture", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--fixture", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_bench():
    """Import the benchmark library against this checkout's own sources."""
    if not (SRC / "pbfopt" / "__init__.py").is_file():
        raise SystemExit(f"pbfopt sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pbfopt

    if Path(pbfopt.__file__).resolve().parent != (SRC / "pbfopt").resolve():
        raise SystemExit(f"imported pbfopt from {pbfopt.__file__}, not {SRC}")
    import bench

    if not bench.BASELINE.is_file():
        raise SystemExit(f"regression baseline not found at {bench.BASELINE}")
    return bench


def child(args, *flags) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--fixture", str(args.fixture), *flags]
    if args.smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
        )
    except subprocess.CalledProcessError as e:
        sys.stderr.write(e.stderr)
        raise


def setup_probe(args) -> None:
    import refclock  # imports numpy: part of the set-up, before sampling starts

    with refclock.SpeedSampler() as sampler:
        bench = import_bench()
        base = bench.smoke_config() if args.smoke else bench.nominal_config()
        bench.load_inputs(args.workload, base, args.fixture, args.seed, args.fixture)
    own, ref = sampler.cost(time.perf_counter() - _T0)
    print(json.dumps({"wall_s": own, "ref_s": ref, "cpu_per_wall": sampler.cpu_per_wall}))


def summary(values) -> str:
    return f"median of {len(values)}, max {max(values):.4g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    bench = import_bench()
    base = bench.smoke_config() if args.smoke else bench.nominal_config()
    if args.build_fixture:
        bench.build_fixture(base, args.fixture)
        return 0

    import refclock
    import tracing

    bench.BUILD.mkdir(parents=True, exist_ok=True)
    work = bench.BUILD / f"work-{args.workload}-{os.getpid()}"
    scratch = [work]
    notes = []
    try:
        if args.smoke:
            args.fixture = bench.BUILD / f"smoke-fixture-{os.getpid()}"
            scratch.append(args.fixture)
        else:
            args.fixture = bench.fixture_dir()
        # every workload builds a missing fixture, so the first run in a
        # checkout pays for it whichever workload that is
        if not bench.fixture_ready(args.fixture):
            t0 = time.perf_counter()
            child(args, "--build-fixture")
            notes.append(f"fixture built in {time.perf_counter() - t0:.1f} s")

        # set-up: imports plus fixtures, each sample in a fresh interpreter
        setup = [
            json.loads(child(args, "--setup-probe").stdout.splitlines()[-1])
            for _ in range(SETUP_SAMPLES)
        ]
        inp = bench.load_inputs(args.workload, base, args.fixture, args.seed, work)
        size = bench.pass_size(inp)

        tracer = tracing.Tracer()
        sampler = refclock.SpeedSampler()
        traced_run = tracer.wrap(tracing.PASS_SPAN, bench.run_pass)
        # (own wall, reference seconds, cpu_per_wall, outcome) per pass
        plain, traced, outcomes = [], [], []
        start = time.perf_counter()
        while True:
            traced_pass = bool(args.trace) and len(traced) < len(plain)
            t0 = time.perf_counter()
            try:
                with sampler:
                    if traced_pass:
                        with tracing.instrument(tracer):
                            out = traced_run(inp)
                    else:
                        out = bench.run_pass(inp)
            except Exception as e:  # counted as failed operations, and shown
                traceback.print_exc(file=sys.stderr)
                out = bench.Outcome(size, size, 0, [f"pass raised {type(e).__name__}: {e}"])
            wall = time.perf_counter() - t0
            (traced if traced_pass else plain).append(
                (*sampler.cost(wall), sampler.cpu_per_wall, out)
            )
            outcomes.append(out)
            for p in out.problems:
                print(f"check failed: {p}", file=sys.stderr)
            if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
                break
        kernel_ms = (
            bench.kernel_probe(1 if args.smoke else PROBE_REPEATS, sampler)
            if args.trace else {}
        )
    finally:
        for d in scratch:
            shutil.rmtree(d, ignore_errors=True)

    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = failed == 0 and not any(o.problems for o in outcomes)
    facts = bench.machine_facts(args.seed)
    own = [p[0] for p in plain]
    ref = [p[1] for p in plain]
    run_s = statistics.median(ref)
    setup_wall = [x["wall_s"] for x in setup]
    setup_ref = [x["ref_s"] for x in setup]
    cpu = [p[2] for p in plain] + [x["cpu_per_wall"] for x in setup]
    held = sum(c <= refclock.CPU_PER_WALL_MAX for c in cpu)
    sims = sum(p[3].sims for p in plain)
    devs = [o.energy_rel_dev for o in outcomes if o.energy_rel_dev is not None]

    rows = [
        ("setup_s", statistics.median(setup_ref), "s",
         f"reference seconds, {summary(setup_ref)}"),
        ("run_s", run_s, "s", f"reference seconds, {summary(ref)}"),
        ("wall_setup_s", statistics.median(setup_wall), "s", summary(setup_wall)),
        ("wall_run_s", statistics.median(own), "s", summary(own)),
        ("cpu_per_wall", max(cpu), "ratio",
         f"max; reference clock held in {held} of {len(cpu)} blocks"),
        ("sims_per_s", sims / sum(own) if sims else None, "1/s", "simulations"),
        ("energy_rel_dev", statistics.median(devs) if devs else None, "ratio",
         "|E_best / E_ref - 1|"),
        ("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "MB", "this process"),
    ]
    reported = {"setup_s", "run_s", "peak_rss_mb"}
    if args.trace:
        layer = tracing.layer_metrics(
            tracer,
            len(traced),
            statistics.median(p[1] for p in traced) / run_s,
            kernel_ms,
        )
        rows += [(k, v, tracing.LAYER_METRICS[k][0], "per traced pass")
                 for k, v in layer.items()]
        reported = set(layer)
        tracer.dump(bench.BUILD / f"trace-{args.workload}.json", facts)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(outcomes)}"
          f"  ({len(traced)} traced)  " + "  ".join(notes))
    for name, value, unit, note in rows:
        shown = "N/A" if value is None else f"{value:.6g}"
        print(f"  {name:<32} {shown:>12} {unit:<6} {note}")
    print("facts " + json.dumps(facts, sort_keys=True))
    metrics = {
        name: {"value": float(value), "unit": unit}
        for name, value, unit, _ in rows
        if name in reported
    }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
