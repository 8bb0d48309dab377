"""Paired benchmark runs of two checkouts, summarised as a BENCH_<pr>.json file.

Runs `python3 perfbench/run.py --workload W --seed i` in a parent checkout and
in a change checkout, for i = 1..10, alternating which side runs first (the
parent on odd i).  The run length is the benchmark's own default.  Each
checkout runs its own `perfbench/` and `src/`, so make them as clean copies
of the two commits, for example:

    git worktree add ../parent <parent-commit>
    git worktree add ../change <change-commit>
    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --workload decide --workload analyze --workload cli --out BENCH_3.json

For every end-to-end metric in BENCHMARK.json the output holds each side's
values, median and quartiles (statistics.quantiles, n=4, as
perfbench/baseline.json uses), the number of pairs the change wins (ties
count for neither side), and whether the medians differ by more than the
parent's interquartile range.  Each side's request counts (`attempted`) are
summarised the same way, because perfbench's `peak_rss_mb` grows with the
number of requests a run completes: perfbench keeps every output until the
run ends.  So each side's `peak_rss_mb` is also fitted to `attempted` by
least squares, as the KB each request adds and the MB at no request, which
tells the program's memory apart from the outputs kept.  From the parent's
fit the output also gives `rss_headroom_pct` per workload: the throughput
gain, in percent, at which the fitted `peak_rss_mb` (KB per request times
the parent's median `attempted`, plus the intercept) reaches the parent's
median `peak_rss_mb` times one plus its bound in BENCHMARK.json; a change
that speeds a workload up by more reads as a memory regression through the
outputs kept alone.  It is null when the fit is missing or not rising.  On
BENCH_16.json it reads about +32% for decide and +53% for analyze.  With
--trace-seed, one traced run per side and workload adds the per-layer
metrics.  The file is rewritten after every run, so an interrupted run keeps
what it measured.

Each run also records `cpu_s_per_request`: the CPU seconds, user plus system,
of the perfbench process and of every process it waited for (the cli
workload's requests and probes among them), read as `resource.getrusage(
RUSAGE_CHILDREN)` deltas around the run and divided by its `attempted`.  It
is summarised per side like the wall metrics.  It counts the whole run, not
its requests alone: the three set-ups, the speed gauge's slices, the cli
workload's robustness probes and the checking of every answer.  So it moves
with those, and it is a cross-check on a wall-time claim, not a claim
metric or a bound.

Passing one checkout as both --parent and --change is the A/A control: ten
pairs of the same code give the win counts and median gaps that drift on the
machine alone produces, to be read next to a claim's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
# Ten pairs is the fewest on which a gain can be claimed (nine wins of ten).
PAIRS = 10


def cpu_seconds_of_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(checkout: str, workload: str, seed: int, trace: bool) -> tuple[dict, float]:
    """One benchmark run: the JSON object on its last output line, and the
    CPU seconds the run and the processes it waited for used."""
    before = cpu_seconds_of_children()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "1" if trace else "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    cpu_s = cpu_seconds_of_children() - before
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), cpu_s


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' figures, the change's wins and the size of the gap."""
    sign = 1 if better == "higher" else -1
    p, c = summarise(parent), summarise(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    return {
        "parent": p, "change": c, "change_wins": wins, "pairs": len(parent),
        "ratio_of_medians": c["median"] / p["median"] if p["median"] else None,
        "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
    }


def rss_fit(runs: list[dict]) -> dict | None:
    """Least-squares line of peak_rss_mb against attempted (None when every
    run attempted the same count); 1 MB is 1024 KB, as perfbench reads it."""
    try:
        fit = statistics.linear_regression([r["attempted"] for r in runs],
                                           [r["peak_rss_mb"] for r in runs])
    except statistics.StatisticsError:
        return None
    return {"kb_per_request": fit.slope * 1024, "intercept_mb": fit.intercept}


def rss_headroom_pct(runs: list[dict], bound: float) -> float | None:
    """The throughput gain, in percent, at which these runs' fitted
    peak_rss_mb reaches their median peak_rss_mb times (1 + bound)."""
    fit = rss_fit(runs)
    if fit is None or fit["kb_per_request"] <= 0:
        return None
    limit = statistics.median(r["peak_rss_mb"] for r in runs) * (1 + bound)
    outputs_mb = fit["kb_per_request"] / 1024 * statistics.median(r["attempted"] for r in runs)
    return 100 * ((limit - fit["intercept_mb"]) / outputs_mb - 1)


def commit_of(checkout: str) -> str | None:
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        choices=["analyze", "decide", "cli"])
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per side and workload at this seed")
    parser.add_argument("--note", default="", help="free text stored as 'method' notes")
    parser.add_argument("--out", required=True, help="BENCH_<pr>.json to write")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        end_to_end = {m["name"]: m for m in json.load(handle)["end_to_end"]}

    checkouts = {"parent": args.parent, "change": args.change}
    report = {
        "commits": {side: commit_of(path) for side, path in checkouts.items()},
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "method": (f"{PAIRS} pairs per workload of `python3 perfbench/run.py --workload W "
                   f"--seed i` (i = 1..{PAIRS}), each side from its own checkout; the parent "
                   "runs first on odd i. Workloads run one after another. " + args.note).strip(),
        "workloads": {},
    }

    def save() -> None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")

    for workload in args.workload:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        entry = report["workloads"][workload] = {"seeds": [], "runs": runs}
        for seed in range(1, PAIRS + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                started = time.time()
                result, cpu_s = run_once(checkouts[side], workload, seed, False)
                runs[side].append({"seed": seed, "correct": result["correct"],
                                   "attempted": result["attempted"], "failed": result["failed"],
                                   "cpu_s_per_request": cpu_s / result["attempted"],
                                   **{k: v["value"] for k, v in result["metrics"].items()}})
                print(f"{workload} seed {seed} {side}: {time.time() - started:.0f} s",
                      file=sys.stderr, flush=True)
            entry["seeds"].append(seed)
            save()
        entry["correct"] = {side: all(r["correct"] for r in runs[side]) for side in SIDES}
        entry["failed"] = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
        entry["end_to_end"] = {
            name: {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                   **compare([r[name] for r in runs["parent"]],
                             [r[name] for r in runs["change"]], spec["better"])}
            for name, spec in end_to_end.items()
        }
        entry["attempted"] = compare([r["attempted"] for r in runs["parent"]],
                                     [r["attempted"] for r in runs["change"]], "higher")
        entry["cpu_s_per_request"] = compare([r["cpu_s_per_request"] for r in runs["parent"]],
                                             [r["cpu_s_per_request"] for r in runs["change"]],
                                             "lower")
        entry["peak_rss_vs_attempted"] = {side: rss_fit(runs[side]) for side in SIDES}
        entry["rss_headroom_pct"] = rss_headroom_pct(runs["parent"],
                                                     end_to_end["peak_rss_mb"]["bound"])
        if args.trace_seed is not None:
            entry[f"traced_seed{args.trace_seed}"] = {
                side: {k: v["value"] for k, v in run_once(
                    checkouts[side], workload, args.trace_seed, True
                )[0]["metrics"].items()}
                for side in SIDES
            }
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
