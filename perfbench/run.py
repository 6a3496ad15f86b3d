"""Benchmark of the S-ring library: one workload per run.

    python3 perfbench/run.py --workload enum-census --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The untraced run (`--trace 0`) warms the
library up, times the program's start-up and the building of the workload's
inputs several times each, then makes passes over the inputs until
`--seconds` have gone by (at least the workload's `min_passes`), and reports
every end-to-end metric.  Each call is counted at its median over the
passes.  The traced run (`--trace 1`) sets up once, makes an untraced and a
traced pass, to measure the tracing overhead, then runs its probes, and
reports every per-layer metric.  Both check the outputs against the
regression constants in `gate.py`, append a record under
`perfbench/results/`, and print one JSON object as the last line of stdout.
The exit code is 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("enum-census", "schurity-81")


def _import_program():
    """Put the checkout's `src/` first on the path; exit 2 when it is missing."""
    src = ROOT / "src"
    if not (src / "schur" / "__init__.py").is_file():
        print("error: no program at %s" % src, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


# What the `schur` command imports before it does any work.
STARTUP = "import sys; sys.path.insert(0, 'src'); import schur.cli"
STARTUP_REPEATS = 5


def startup_s():
    """Seconds a fresh interpreter takes to start and import the program."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP], cwd=ROOT, check=True)
    return time.perf_counter() - start


def timed_run(wl, seed, seconds):
    from workloads import Timer, warm_up

    warm_up()
    startups = [startup_s() for _ in range(STARTUP_REPEATS)]
    builds = []
    for _ in range(wl.setup_repeats):
        start = time.perf_counter()
        inputs = wl.setup(seed)
        builds.append(time.perf_counter() - start)
    passes = []
    start = time.perf_counter()
    while len(passes) < wl.min_passes or time.perf_counter() - start < seconds:
        passes.append(wl.run(inputs, Timer()))
    per_call = metrics.median_per_call([p.samples for p in passes])
    p50, tail = metrics.latency_ms(per_call)
    values = {
        "wall_s": sum(per_call),
        "setup_s": statistics.median(startups) + statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_p50_ms": p50,
        "check_tail_ms": tail,
    }
    return passes, values, {"startup_samples_s": startups, "setup_samples_s": builds}


def traced_run(wl, seed, out_dir):
    """One untraced and one traced pass, then the traced pass's probes."""
    from workloads import Timer, warm_up

    warm_up()
    tr = Tracer()
    m = {name: 0 for name in metrics.PER_LAYER}
    with tr.span("setup", wl.name):
        inputs = wl.setup(seed, tr, m)
    plain = wl.run(inputs, Timer())
    traced = wl.run(inputs, tr, m)
    if m["enumeration.nodes"]:
        m["enumeration.leaf_yield"] = m["enumeration.leaves"] / m["enumeration.nodes"]
    if m["enumeration.candidates"]:
        m["enumeration.prune_module_rate"] = m["enumeration.prune_module"] / m["enumeration.candidates"]
    for name, own in tr.self_times().items():
        layer = name.split(".")[0]
        if layer in metrics.LAYERS:
            m[layer + ".self_s"] += own
    # A pass's wall counts its calls only, not the probes that follow them.
    m["trace.overhead_s"] = traced.wall - plain.wall
    m["trace.spans"] = len(tr.spans)
    spans_path = out_dir / ("spans-%s-seed%d.json" % (wl.name, seed))
    tr.dump(spans_path)
    extra = {
        "untraced_wall_s": plain.wall,
        "traced_wall_s": traced.wall,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return [plain, traced], m, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()

    import record
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = record.environment(ROOT)
    if args.trace:
        passes, values, extra = traced_run(wl, args.seed, record.results_dir(ROOT, env["label"]))
        units = {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
    else:
        passes, values, extra = timed_run(wl, args.seed, args.seconds)
        units = metrics.END_TO_END
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    per_pass = [len(p.samples) for p in passes]
    rec = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": values,
        "passes": [
            {"wall_s": p.wall, "samples_s": p.samples, "attempted": p.attempted, "failed": p.failed}
            for p in passes
        ],
        **extra,
    }
    path = record.append(ROOT, rec)
    print(
        "%s seed=%d trace=%d passes=%d check samples/pass=%s tail=%s failed_frac=%g record=%s"
        % (
            wl.name,
            args.seed,
            args.trace,
            len(passes),
            per_pass,
            metrics.tail_label(min(per_pass)),
            rec["failed_frac"],
            path.relative_to(ROOT),
        )
    )
    result = {
        "correct": rec["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
