"""bhforms benchmark: one seeded, closed-loop workload per invocation, one
client in one process.

    python3 bench/run.py --workload exact-large --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes over the same inputs, reports the
per-layer metrics and the tracing overhead, and writes the span dump to
``bench/out/``.
The last line of stdout is the result as one JSON object; the line before it
is a report with the environment, the latency percentiles and sample count,
the unadjusted times, and the exact-norm work counters next to each timing.

The end-to-end times are host-adjusted: a fixed calibration job runs between
timed sections, and each section's times are divided by the host's slowness
it shows (see ``measure``).
"""

from __future__ import annotations

import os

# one thread for every BLAS/OpenMP pool, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
MIN_BEYOND_TAIL = 10
MAX_STRETCH = 3  # a run measures up to this many times --seconds to fill its tail
SELF_TIME_SLACK = (0.05, 50_000)  # share of an op's latency, plus ns
# calibrate() on an idle 2-vCPU Xeon at 2.1 GHz, the machine the benchmark
# was written on; it only sets the scale of the host-adjusted times
CALIBRATION_REF_MS = 30.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's own smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import the library and build the inputs")
    return ap.parse_args(argv)


def percentile(sorted_ns: list, pct: float) -> float:
    """Linear-interpolated percentile of sorted samples, in ms."""
    x = (len(sorted_ns) - 1) * pct / 100.0
    lo = int(x)
    hi = min(lo + 1, len(sorted_ns) - 1)
    return (sorted_ns[lo] + (sorted_ns[hi] - sorted_ns[lo]) * (x - lo)) / 1e6


class Runner:
    """Runs passes over one pass of inputs, timing each op, and checks every
    output after its pass, outside the timed section."""

    def __init__(self, wl, inputs, brute: set):
        self.wl = wl
        self.inputs = inputs
        self.brute = brute
        self.fingerprints = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.seq = 0

    def run_pass(self, tracer=None):
        """One pass; returns (pass wall ns, per-op latencies ns, outputs)."""
        lat, outs = [], []
        op = self.wl.op
        start = perf_counter_ns()
        for inp in self.inputs:
            t0 = perf_counter_ns()
            if tracer is None:
                out = op(inp, self.seq)
            else:
                tracer.on = True
                root = tracer.begin_op(self.seq)
                out = op(inp, self.seq)
                tracer.end_op(root)
                tracer.on = False
            lat.append(perf_counter_ns() - t0)
            outs.append(out)
            self.seq += 1
        wall = perf_counter_ns() - start
        self.check(outs)
        return wall, lat, outs

    def fail(self, ops: int, message: str):
        self.failed += ops
        self.failures.append(message)

    def check(self, outs):
        for i, (inp, out) in enumerate(zip(self.inputs, outs)):
            self.attempted += 1
            first = i not in self.fingerprints
            try:
                fp = self.wl.check(inp, out, deep=first, brute=first and i in self.brute)
            except Exception as exc:  # every miss counts, whatever raised it
                self.fail(1, f"{self.wl.label(inp)}: {type(exc).__name__}: {exc}")
                continue
            if first:
                self.fingerprints[i] = fp
            elif fp != self.fingerprints[i]:
                self.fail(1, f"{self.wl.label(inp)}: output differs between passes")


def calibrate() -> float:
    """Wall ms of a fixed job that shares no code with bhforms: dict, tuple
    and sort work in pure Python, as in form building, and small integer
    numpy kernels, as in exact-norm enumeration.  A change to the library
    cannot move it; only the host's speed does."""
    t0 = perf_counter_ns()
    for _ in range(160):
        d = {}
        for i in range(400):
            t = (i % 7, i % 5, i % 3)
            d[t] = d.get(t, 0) + i
        sorted(d.items())
    rng = np.random.default_rng(0)
    a = rng.integers(-1, 2, size=(64, 64))
    b = rng.integers(-1, 2, size=(1 << 12, 12))
    for _ in range(60):
        np.einsum("ij,jk->ik", a, a)
        np.abs(b @ rng.integers(-3, 4, size=12)).max()
    return (perf_counter_ns() - t0) / 1e6


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_probe(args) -> float:
    """Wall time of a fresh process that starts the interpreter, imports the
    library and builds the workload's inputs: everything before timing."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--size", args.size,
           "--setup-probe"]
    t0 = perf_counter()
    # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # would quantise the measured time
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL) as child:
        code = child.wait()
    if code:
        raise RuntimeError(f"set-up probe exited with {code}")
    return perf_counter() - t0


def class_report(wl, inputs, lat_by_input, first_out) -> list:
    """Per input class: median latency next to the exact-norm work counters."""
    rows = {}
    for i, inp in enumerate(inputs):
        row = rows.setdefault(wl.label(inp), {"ops": 0, "lat": []})
        row["ops"] += len(lat_by_input[i])
        row["lat"].extend(lat_by_input[i])
        counters = wl.exact_counters(inp, first_out[i])
        if counters is not None:
            row["vertex_space"], row["cells_computed"], row["path"] = counters
    out = []
    for label, row in rows.items():
        lat = sorted(row.pop("lat"))
        out.append({"class": label, **row, "latency_p50_ms": percentile(lat, 50)})
    return out


def measure(args, runner):
    """Timed passes until ``--seconds`` of timed work; whole passes only, so
    every run has the same mix of inputs.  A run whose ops are so slow that
    fewer than ``MIN_BEYOND_TAIL`` samples would lie beyond the workload's
    tail percentile measures on, up to ``MAX_STRETCH`` times as long.  Set-up
    probes run between passes, spread over the run, so they sample the same
    host conditions.

    ``calibrate`` runs after every pass and set-up probe.  The host's
    slowness during a pass is the mean of the calibrations on either side of
    it over ``CALIBRATION_REF_MS``; the pass's times are divided by it.  A
    probe cannot be paired with calibrations of its own, as the child
    process's start and imports do not slow with the host as the
    calibration does; ``end_to_end`` divides the probes' median by the
    run's median slowness instead."""
    n = len(runner.inputs)
    lat, lat_raw, rates, rates_raw, setup, slowness = [], [], [], [], [], []
    by_input = {i: [] for i in range(n)}
    first_out = None
    timed = 0
    budget = args.seconds * 1e9

    def more():
        thin = len(lat) * (1 - runner.wl.tail_pct / 100.0) < MIN_BEYOND_TAIL
        return timed < budget or (thin and timed < MAX_STRETCH * budget)

    before = calibrate()
    while more() or len(setup) < SETUP_PROBES:
        if len(setup) < SETUP_PROBES and timed >= len(setup) * budget / SETUP_PROBES:
            setup.append(setup_probe(args))
            before = calibrate()
            continue
        wall, ops, outs = runner.run_pass()
        after = calibrate()
        slow = (before + after) / 2 / CALIBRATION_REF_MS
        before = after
        slowness.append(slow)
        timed += wall
        rates_raw.append(n / (wall / 1e9))
        rates.append(rates_raw[-1] * slow)
        lat_raw.extend(ops)
        for i, t in enumerate(ops):
            lat.append(t / slow)
            by_input[i].append(t / slow)
        first_out = first_out or outs
    return {"lat": lat, "lat_raw": lat_raw, "rates": rates, "rates_raw": rates_raw,
            "setup": setup, "slowness": slowness,
            "timed": timed, "by_input": by_input, "first_out": first_out}


def end_to_end(args, wl, inputs, runner, report):
    m = measure(args, runner)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat, lat_raw = sorted(m["lat"]), sorted(m["lat_raw"])
    tail = percentile(lat, wl.tail_pct)
    beyond = sum(1 for t in lat if t / 1e6 > tail)
    if beyond < MIN_BEYOND_TAIL:
        runner.fail(1, f"only {beyond} samples beyond p{wl.tail_pct:g}")
    report.update({
        "timed_s": m["timed"] / 1e9,
        "passes": len(m["rates"]),
        "samples": len(lat),
        "tail_percentile": wl.tail_pct,
        "samples_beyond_tail": beyond,
        "host_slowness_quartiles": statistics.quantiles(m["slowness"], n=4),
        "unadjusted": {
            "setup_s": statistics.median(m["setup"]),
            "throughput_ops_s": statistics.median(m["rates_raw"]),
            "latency_p50_ms": percentile(lat_raw, 50),
            "latency_tail_ms": percentile(lat_raw, wl.tail_pct),
        },
        "setup_probes_s": m["setup"],
        "classes": class_report(wl, inputs, m["by_input"], m["first_out"]),
    })
    return {
        "setup_s": (statistics.median(m["setup"]) / statistics.median(m["slowness"]), "s"),
        "throughput_ops_s": (statistics.median(m["rates"]), "ops/s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(args, wl, inputs, runner, report, layer_units, workdir):
    from tracer import Tracer

    passes = 2 if args.size == "tiny" else max(1, round(args.seconds / 2 / wl.nominal_pass_s))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.on = True
        traced_inputs = wl.setup(args.seed, args.size == "tiny", workdir)
        tracer.on = False
    finally:
        tracer.uninstall()
    if [wl.label(i) for i in traced_inputs] != [wl.label(i) for i in inputs]:
        runner.fail(1, "traced set-up built different inputs")

    # untraced and traced passes alternate, so drift in the host's speed
    # reaches both sides of the overhead ratio alike
    untraced = traced = 0
    latency = {}
    for _ in range(passes):
        untraced += runner.run_pass()[0]
        first = runner.seq
        tracer.install()
        try:
            wall, lat, _ = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced += wall
        latency.update(enumerate(lat, first))

    ops, bad, worst = tracer.check_self_times(latency, SELF_TIME_SLACK)
    if bad:
        runner.fail(bad, f"{bad} of {ops} ops: layer self times leave more than "
                         f"{SELF_TIME_SLACK[0]:.0%} of the op latency + "
                         f"{SELF_TIME_SLACK[1] / 1e3:.0f} us unattributed (worst {worst:.2%})")
    layers = tracer.layer_metrics()
    layers["search.best_ratio"] = wl.mean_best_ratio(runner.fingerprints)
    layers["trace.overhead_frac"] = (traced - untraced) / untraced
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{wl.name}-seed{args.seed}.json.gz"
    tracer.dump(str(dump))
    report.update({
        "passes": passes,
        "untraced_s": untraced / 1e9,
        "traced_s": traced / 1e9,
        "spans": len(tracer.spans),
        "span_dump": str(dump.relative_to(ROOT)),
        "self_time_check": {"ops": ops, "failing": bad, "worst_unattributed": worst,
                            "slack": SELF_TIME_SLACK},
        "unlisted_layer_metrics": {k: v for k, v in layers.items()
                                   if k not in layer_units},
    })
    return {k: (layers[k], unit) for k, unit in layer_units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bhforms" / "__init__.py").is_file():
        print(f"error: no bhforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]()
    tiny = args.size == "tiny"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            wl.setup(args.seed, tiny, workdir)
            return 0
        report = {"workload": wl.name, "seed": args.seed, "size": args.size,
                  "environment": environment()}
        t0 = perf_counter()
        inputs = wl.setup(args.seed, tiny, workdir)
        report["in_process_setup_s"] = perf_counter() - t0
        runner = Runner(wl, inputs, wl.brute_pick(args.seed, inputs))
        runner.run_pass()  # warm-up: first-call costs, and the deep checks
        calibrate()
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = per_layer(args, wl, inputs, runner, report, units, workdir)
        else:
            metrics = end_to_end(args, wl, inputs, runner, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = min(runner.failed, runner.attempted)
    report["failed_ops_frac"] = failed / runner.attempted
    report["failures"] = runner.failures[:20]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
