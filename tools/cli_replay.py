"""Replay the cli workload's rounds in two checkouts and compare them request by request.

For each seed, the round is `generate("cli", seed)` of `perfbench/gen.py`,
read from the parent checkout (it is not modified).  Every request runs as
`python -m godelforest.cli ARGV` once per checkout, with PYTHONPATH set to
that checkout's `src/`, interleaved per request: the parent runs first on
even request numbers and the change on odd ones.  Each run gets a fresh
empty working directory holding the request's input files, so files that a
run writes (such as `synthesize` output) are read back and compared too.
The environment is passed on as it is, PYTHONDONTWRITEBYTECODE included.
After the rounds it replays each entry of the change's
`tools/cli_edge_argv.json` (help, usage errors, other argv that argparse
reads, and refusals of bad input files) under the category `extra`.  An
entry is a bare argv, run in an empty working directory, or
`{"argv": [...], "files": {path: content}}`, run with those files.  Make
the two checkouts as clean copies of the commits, for example:

    git clone -q . ../parent && git -C ../parent checkout <parent-commit>
    python3 tools/cli_replay.py --parent ../parent --change . --seed 1 --seed 2

It prints every request whose exit code, stdout, stderr or written files
differ, then per category (the subcommand; `forest` per n) the request
count and the medians of the parent's and the change's wall times and of the
per-request differences, in ms.  With --out it also writes these as JSON.
The exit code is 1 when any request differs, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

SIDES = ("parent", "change")
#: Seconds one request may take; the benchmark's largest take a few.
TIMEOUT_S = 300


def load_gen(checkout: str):
    """`perfbench/gen.py` of a checkout, imported with its own directory on the path."""
    bench = os.path.join(os.path.abspath(checkout), "perfbench")
    sys.path.insert(0, bench)
    spec = importlib.util.spec_from_file_location("gen", os.path.join(bench, "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def run_request(checkout: str, request: dict) -> tuple[dict, float]:
    """Exit code, stdout, stderr and written files of one request, and its wall time."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    with tempfile.TemporaryDirectory(prefix="cli-replay-") as work:
        for path, content in request["files"].items():
            full = os.path.join(work, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as handle:
                handle.write(content)
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "godelforest.cli", *request["argv"]],
                              cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
        took = time.perf_counter() - started
        written = {}
        for folder, _, names in os.walk(work):
            for name in names:
                full = os.path.join(folder, name)
                path = os.path.relpath(full, work)
                with open(full, "rb") as handle:
                    data = handle.read()
                if data != request["files"].get(path, "").encode("utf-8"):
                    written[path] = data
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": written}, took


def differences(a: dict, b: dict) -> list[str]:
    """Names of the parts in which two results differ."""
    return [part for part in ("code", "stdout", "stderr", "files") if a[part] != b[part]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seed", type=int, action="append",
                        help="cli round to replay (repeatable; default: 1 and 2)")
    parser.add_argument("--out", help="also write the summary as JSON here")
    args = parser.parse_args(argv)
    gen = load_gen(args.parent)
    checkouts = {"parent": args.parent, "change": args.change}
    rounds = [(seed, gen.generate("cli", seed, args.parent)) for seed in args.seed or [1, 2]]
    edge_argv = os.path.join(args.change, "tools", "cli_edge_argv.json")
    with open(edge_argv, encoding="utf-8") as handle:
        entries = [e if isinstance(e, dict) else {"argv": e} for e in json.load(handle)]
    rounds.append(("extra", [{"files": {}, **e, "cat": "extra"} for e in entries]))
    differing, times = [], {}
    total = 0
    for seed, requests in rounds:
        for k, request in enumerate(requests):
            total += 1
            results, took = {}, {}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                results[side], took[side] = run_request(checkouts[side], request)
            parts = differences(results["parent"], results["change"])
            if parts:
                differing.append({"seed": seed, "request": k, "argv": request["argv"],
                                  "differs_in": parts})
                print(f"seed {seed} request {k}: {' '.join(request['argv'])}: "
                      f"{', '.join(parts)} differ", flush=True)
            times.setdefault(request["cat"], []).append((took["parent"], took["change"]))
    summary = {}
    for cat, pairs in sorted(times.items()):
        summary[cat] = {
            "requests": len(pairs),
            "parent_ms": 1000 * statistics.median(p for p, _ in pairs),
            "change_ms": 1000 * statistics.median(c for _, c in pairs),
            "delta_ms": 1000 * statistics.median(c - p for p, c in pairs),
        }
    print(f"{total} requests, {len(differing)} differ")
    print(f"{'category':<12} {'requests':>8} {'parent ms':>10} {'change ms':>10} {'delta ms':>9}")
    for cat, row in summary.items():
        print(f"{cat:<12} {row['requests']:>8} {row['parent_ms']:>10.1f} "
              f"{row['change_ms']:>10.1f} {row['delta_ms']:>+9.1f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seeds": args.seed or [1, 2], "requests": total, "differing": differing,
                       "per_category": summary}, handle, indent=1)
            handle.write("\n")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
