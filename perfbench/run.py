"""godelforest benchmark: analyze, decide and cli workloads.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1    # every workload, one table

One run sets up (import, input generation, warm-up) three times and reports
the median as setup_s, drives one closed-loop client over the seeded round of
requests for --seconds, checks every answer, and for cli runs the robustness
probes.  End-to-end times are scaled to a reference machine speed gauged
during the run (see speed.py).  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it runs blocks of requests untraced and traced in
turn, and reports per-layer self times and counts per traced request, plus
the tracing overhead.  The last line of output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import gen
import probes
import speed
import trace
from workloads import WORKLOADS

SETUP_REPEATS = 3
SPAWN_REPEATS = 5
TRACE_BLOCK = 10
OUT_DIR = ".perfbench"

END_TO_END_UNITS = {
    "throughput_rps": "req/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] + (xs[lo + 1] - xs[lo]) * (h - lo)


def fresh_import(src: str):
    """Import godelforest from src, dropping any earlier import first, so
    every set-up pays the import again."""
    for name in [m for m in sys.modules if m == "godelforest" or m.startswith("godelforest.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pkg = importlib.import_module("godelforest")
    for module in trace.MODULES:
        importlib.import_module(f"godelforest.{module}")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise RuntimeError(f"godelforest came from {pkg.__file__}, not {src}")
    return pkg


def set_up(name: str, seed: int, root: str):
    src = os.path.join(root, "src")
    pkg = fresh_import(src)
    requests = gen.generate(name, seed, root)
    return pkg, WORKLOADS[name](pkg, requests, root)


def run_request(workload, k: int, i: int, tracer=None):
    """Request k of the round, as the i-th of its phase: (latency, output)."""
    if tracer is not None:
        tracer.begin_request(i)
    t0 = time.perf_counter()
    try:
        output, ok = workload.run(k), True
    except Exception:  # a crash is a failed request, not a failed run
        output, ok = traceback.format_exc(), False
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_request()
        if ok:
            tracer.count("exports.bytes_out", workload.bytes_out(output))
    return latency, (k, ok, output)


def timed_phase(workload, seconds: float, gauge: speed.Gauge):
    """Closed loop over the round until `seconds` have passed, with a gauge
    slice between two requests as often as the gauge's mode asks.  Returns the
    latencies raw and in reference seconds, the outputs, and the raw and
    the reference-scaled wall time of the loop without the slices."""
    latencies, scaled, starts, outputs = [], [], [], []
    start = time.perf_counter()
    spent0 = gauge.spent
    i = 0
    while (now := time.perf_counter()) < start + seconds:
        if gauge.due(now):
            gauge.sample()
        starts.append(time.perf_counter())
        latency, output = run_request(workload, i % len(workload.requests), i)
        latencies.append(latency)
        outputs.append(output)
        i += 1
    wall = time.perf_counter() - start - (gauge.spent - spent0)
    gauge.sample()
    for t0, latency in zip(starts, latencies):
        scaled.append(latency * gauge.scale(t0, t0 + latency))
    # The loop's own time between requests is tiny and left unscaled.
    scaled_wall = sum(scaled) + (wall - sum(latencies))
    return latencies, scaled, outputs, wall, scaled_wall


def paired_phase(workload, pkg, seconds: float, tracer):
    """Blocks of the round run untraced and traced in turn, which mode goes
    first alternating from block to block, so both modes time the same
    requests under the same conditions.  Returns (latencies, outputs) for
    the untraced and the traced mode."""
    modes = {False: ([], []), True: ([], [])}
    count = len(workload.requests)
    start = time.perf_counter()
    first = 0
    while time.perf_counter() < start + seconds:
        order = (False, True) if first // TRACE_BLOCK % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer.install(pkg)
            try:
                for i in range(first, first + TRACE_BLOCK):
                    latency, output = run_request(workload, i % count, i,
                                                  tracer if traced else None)
                    modes[traced][0].append(latency)
                    modes[traced][1].append(output)
            finally:
                if traced:
                    tracer.uninstall()
        first += TRACE_BLOCK
    return modes[False], modes[True]


def check_outputs(workload, outputs) -> list[tuple[int, list[str]]]:
    failures = []
    for k, ok, output in outputs:
        problems = workload.check(k, output) if ok else [output.strip().splitlines()[-1]]
        if problems:
            failures.append((k, problems))
    return failures


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest child so far, in MB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)


def spawn_seconds(env: dict, root: str) -> float:
    times = []
    for _ in range(SPAWN_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import godelforest.cli"], cwd=root, env=env,
                       check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracer, requests: int, extra: dict) -> dict:
    st, c = tracer.self_times(), tracer.counts

    def per_req(value):
        return value / requests

    def ratio(a, b):
        return a / b if b else 0.0

    analyses = c["axioms.analyze_calls"]
    m = {
        "formulas.parse_s": (per_req(st["formulas.parse"]), "s/req"),
        "formulas.nodes_parsed": (per_req(c["formulas.nodes_parsed"]), "count/req"),
        "formulas.format_s": (per_req(st["formulas.format"]), "s/req"),
        "forest.enumerate_s": (per_req(st["forest.enumerate"]), "s/req"),
        "forest.nodes_built": (per_req(c["forest.nodes_built"]), "count/req"),
        "forest.subforest_s": (per_req(st["forest.subforest"]), "s/req"),
        "semantics.formula_forest_s": (per_req(st["semantics.formula_forest"]), "s/req"),
        "semantics.node_evals": (per_req(c["semantics.node_evals"]), "count/req"),
        "semantics.formula_forest_calls": (per_req(c["semantics.formula_forest_calls"]),
                                           "count/req"),
        "semantics.repeat_ratio": (ratio(c["semantics.repeat_calls"],
                                         c["semantics.formula_forest_calls"]), "ratio"),
        "semantics.oracle_s": (per_req(st["semantics.oracle"]), "s/req"),
        "semantics.decide_self_s": (per_req(st["semantics.decide"]), "s/req"),
        "partitions.critical_points_s": (per_req(st["partitions.critical_points"]), "s/req"),
        "partitions.realized_classes_s": (per_req(st["partitions.realized_classes"]), "s/req"),
        "partitions.samples": (per_req(c["partitions.samples"]), "count/req"),
        "partitions.realized_calls": (ratio(c["partitions.realized_calls"], analyses),
                                      "calls/analyze"),
        "partitions.other_s": (per_req(st["partitions.other"]), "s/req"),
        "axioms.analyze_self_s": (per_req(st["axioms.analyze"]), "s/req"),
        "axioms.axiom_nodes": (ratio(c["axioms.axiom_nodes"], analyses), "nodes/analyze"),
        "axioms.synthesize_s": (per_req(st["axioms.synthesize"]), "s/req"),
        "axioms.other_s": (per_req(st["axioms.other"]), "s/req"),
        "exports.report_s": (per_req(st["exports.report"]), "s/req"),
        "exports.subforest_s": (per_req(st["exports.subforest"]), "s/req"),
        "exports.bytes_out": (per_req(c["exports.bytes_out"]), "bytes/req"),
        "cli.main_self_s": (per_req(st["cli.main"]), "s/req"),
        "client.self_s": (per_req(st["client"]), "s/req"),
    }
    m.update(extra)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def run_workload(name: str, seed: int, seconds: float, tracing: bool, root: str) -> dict:
    is_cli = name == "cli"
    gauge = speed.Gauge(speed.CHILD if is_cli else speed.IN_PROCESS)
    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        (pkg, workload), took, scaled = gauge.bracket(lambda: set_up(name, seed, root))
        setup_times.append(took)
        setup_scaled.append(scaled)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    if not tracing:
        latencies, scaled, outputs, wall, scaled_wall = timed_phase(workload, seconds, gauge)
        rss = peak_rss_mb()
        phases = [outputs]
    else:
        if is_cli:
            workload.in_process = True
        tracer = trace.Tracer()
        (base_lat, base_out), (latencies, outputs) = paired_phase(workload, pkg, seconds, tracer)
        phases = [base_out, outputs]
        clear = getattr(pkg.forest.enumerate_forest, "cache_clear", None)
        if clear is not None:
            clear()
        setup_tracer = trace.Tracer()
        setup_tracer.install(pkg)
        try:
            for n in workload.forest_sizes:
                pkg.enumerate_forest(n)
        finally:
            setup_tracer.uninstall()

    failures = [f for phase in phases for f in check_outputs(workload, phase)]
    attempted = sum(len(phase) for phase in phases)
    failed = len(failures)
    # Probes are inputs the program is known to fail on at the seed, so they
    # stay out of attempted and failed, which cover the workload's requests.
    # They are counted in cli.probe_failures; a wrong answer still clears
    # `correct`.
    probe_results = probes.run_probes(env, root) if is_cli else []
    probe_failed = [(p, o) for p, o in probe_results if o not in probes.PASSING]
    correct = not failures and not any(o == "wrong" for _, o in probe_results)

    if not tracing:
        raw = {
            "throughput_rps": len(latencies) / wall,
            "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
            "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {
            "throughput_rps": len(scaled) / scaled_wall,
            "latency_p50_ms": percentile(scaled, 0.5) * 1e3,
            "latency_p90_ms": percentile(scaled, 0.9) * 1e3,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": rss[0] + rss[1] if is_cli else rss[0],
            "success_rate": 1 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        # Paired by request: the same request timed untraced and traced.
        overhead = statistics.median(t - b for t, b in zip(latencies, base_lat))
        ratio = statistics.median(t / b for t, b in zip(latencies, base_lat))
        extra = {
            "forest.setup_enumerate_s": (setup_tracer.self_times()["forest.enumerate"], "s"),
            "forest.setup_nodes_built": (setup_tracer.counts["forest.nodes_built"], "count"),
            "cli.spawn_s": (spawn_seconds(env, root) if is_cli else 0.0, "s"),
            "cli.probe_failures": (len(probe_failed), "count"),
            "trace.overhead_ms": (overhead * 1e3, "ms/req"),
            "trace.overhead_pct": (100 * (ratio - 1), "%"),
            "trace.requests": (len(latencies), "count"),
        }
        metrics = layer_metrics(tracer, len(latencies), extra)
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        tracer.dump(os.path.join(root, OUT_DIR, f"trace-{name}-{seed}.json"))

    return {
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        "detail": {
            "samples": len(latencies), "setup_runs": setup_times,
            "rss": None if tracing else rss,
            "raw": None if tracing else raw,
            "slices": gauge.took, "slice_reference": gauge.mode.reference_s,
            "failures": [f"request {k}: {'; '.join(p)[:300]}" for k, p in failures[:5]],
            "probes": probe_results,
        },
    }


def print_table(rows: dict[str, dict], samples: dict[str, int], tracing: bool) -> None:
    """End-to-end metrics: one row per workload.  Per-layer metrics, which
    are many: one row per metric, one column per workload."""
    first = next(iter(rows.values()))["metrics"]
    if not tracing:
        heads = [f"{m} ({v['unit']})" for m, v in first.items()]
        heads += ["attempted", "failed", "error_rate", "samples"]
        print("workload".ljust(10) + "".join(h.rjust(max(len(h), 12) + 2) for h in heads))
        for name, r in rows.items():
            cells = [f"{v['value']:.6g}" for v in r["metrics"].values()]
            cells += [str(r["attempted"]), str(r["failed"]),
                      f"{r['failed'] / r['attempted']:.6g}", str(samples[name])]
            print(name.ljust(10) + "".join(c.rjust(max(len(h), 12) + 2)
                                           for c, h in zip(cells, heads)))
    else:
        width = max(len(m) for m in first) + 2
        print("metric".ljust(width) + "".join(w.rjust(16) for w in rows) + "  unit")
        for metric, v in first.items():
            cells = "".join(f"{r['metrics'][metric]['value']:16.6g}" for r in rows.values())
            print(metric.ljust(width) + cells + f"  {v['unit']}")
        for label in ("attempted", "failed"):
            print(label.ljust(width) + "".join(f"{r[label]:16d}" for r in rows.values()))
        print("samples".ljust(width) + "".join(f"{samples[w]:16d}" for w in rows))
    print("latency percentiles: p50 and p90, linear interpolation between closest ranks")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "godelforest", "__init__.py")):
        print("error: run from a godelforest checkout (no src/godelforest here)",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        rows, samples = {}, {}
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=root, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            rows[name] = json.loads(lines[-1])
            samples[name] = next(int(x.split()[1]) for x in lines if x.startswith("samples: "))
        print_table(rows, samples, bool(args.trace))
        summary = {
            "correct": all(r["correct"] for r in rows.values()),
            "attempted": sum(r["attempted"] for r in rows.values()),
            "failed": sum(r["failed"] for r in rows.values()),
            "metrics": {f"{w}.{k}": v for w, r in rows.items() for k, v in r["metrics"].items()},
        }
        print(json.dumps(summary))
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    detail = result.pop("detail")
    print_table({args.workload: result}, {args.workload: detail["samples"]}, bool(args.trace))
    print(f"samples: {detail['samples']} timed requests; set-up runs: "
          + ", ".join(f"{t:.3f}s" for t in detail["setup_runs"]))
    if detail["rss"] is not None:
        print("peak RSS: this process %.1f MB, largest child %.1f MB" % detail["rss"])
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in detail["raw"].items()))
    slices = detail["slices"]
    print(f"speed gauge: {len(slices)} slices, median {statistics.median(slices) * 1e3:.3f} ms, "
          f"quartiles " + " / ".join(f"{q * 1e3:.3f}" for q in statistics.quantiles(slices, n=4))
          + f" (reference {detail['slice_reference'] * 1e3:g} ms)")
    for name, outcome in detail["probes"]:
        print(f"probe {name}: {outcome}")
    for line in detail["failures"]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
