"""The three workloads: set-up, one request, and the check of its answer.

Each is driven closed loop by one client: the next request starts when the
previous one has returned.  `run(k)` executes request k of the round and
returns its raw output; `check(k, output)` judges it after the timed phase,
so checking costs no timed wall time.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import checks
import gen

#: Seconds one CLI request may take before it counts as failed.
REQUEST_TIMEOUT_S = 60


class Analyze:
    """Library `analyze(p)`, then `report_to_json` and `format_report`."""

    def __init__(self, pkg, requests: list[dict], root: str) -> None:
        self.pkg, self.requests = pkg, requests
        self.partitions = [pkg.partition_from_json(r["partition"]) for r in requests]
        self.forest_sizes = sorted({r["expect"]["n"] for r in requests})
        for n in self.forest_sizes:
            pkg.enumerate_forest(n)

    def run(self, k: int):
        pkg = self.pkg
        report = pkg.analyze(self.partitions[k])
        obj = pkg.report_to_json(report)
        text = pkg.format_report(report)
        return obj, text, len(json.dumps(obj, indent=2)) + len(text)

    def check(self, k: int, output) -> list[str]:
        return checks.check_analyze(self.requests[k]["expect"], output[0], output[1])

    def bytes_out(self, output) -> int:
        return output[2]


class Decide:
    """Text queries: parsed, formatted back to canonical text (as a reply
    that echoes the query would), decided; finite-logic queries also go to
    the grid oracle."""

    def __init__(self, pkg, requests: list[dict], root: str) -> None:
        self.pkg, self.requests = pkg, requests
        self.forest_sizes = sorted({r["n"] for r in requests})
        for n in self.forest_sizes:
            pkg.enumerate_forest(n)

    def run(self, k: int):
        pkg, req = self.pkg, self.requests[k]
        n, texts = req["n"], req["formulas"]
        logic = pkg.parse_logic(req["logic"])
        formulas = [pkg.parse_formula(t) for t in texts]
        for f in formulas:
            pkg.format_formula(f)
        if req["op"] == "taut":
            verdict = pkg.is_tautology(formulas[0], n, logic)
            combined = formulas[0]
        elif req["op"] == "equiv":
            verdict = pkg.proves_equiv(formulas[0], formulas[1], n, logic)
            combined = f"({texts[0]}) <-> ({texts[1]})"
        else:
            verdict = pkg.proves_implies(formulas[0], formulas[1], n, logic)
            combined = f"({texts[0]}) -> ({texts[1]})"
        oracle = None
        if req["logic"] != "ginf":
            if isinstance(combined, str):
                combined = pkg.parse_formula(combined)
            oracle = pkg.grid_tautology_oracle(combined, n, int(req["logic"][1:]))
        return verdict, oracle

    def check(self, k: int, output) -> list[str]:
        return checks.check_decide(self.requests[k], output[0], output[1])

    def bytes_out(self, output) -> int:
        return 0


class Cli:
    """`python -m godelforest.cli` as a subprocess, one at a time.  With
    `in_process` set (traced runs) each invocation is replayed through
    `godelforest.cli.main(argv)` with output captured and the forest cache
    cleared first, so it still builds its forest cold.

    Each invocation's stdout goes to its own file, not into this process:
    a child's peak RSS as the kernel reports it includes this process's RSS
    when the child was started, so this process must stay small."""

    def __init__(self, pkg, requests: list[dict], root: str) -> None:
        self.pkg, self.requests, self.root = pkg, requests, root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.forest_sizes: list[int] = []
        self.in_process = False
        self.cache_clear = getattr(pkg.forest.enumerate_forest, "cache_clear", None)
        for req in requests:
            for path, content in req["files"].items():
                full = os.path.join(root, path)
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "w", encoding="utf-8") as handle:
                    handle.write(content)
        self.out_dir = os.path.join(root, gen.WORK_DIR, "out")
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        self.visits = 0
        code, _, err = self.spawn(["count", "--n", "1", "--kind", "leaves"])
        if code != 0:
            raise RuntimeError(f"the CLI does not start: {err.strip()[-300:]}")

    def _out_path(self) -> str:
        self.visits += 1
        return os.path.join(self.out_dir, f"{self.visits}.txt")

    def spawn(self, argv: list[str]):
        path = self._out_path()
        with open(path, "w", encoding="utf-8") as out:
            proc = subprocess.run(
                [sys.executable, "-m", "godelforest.cli", *argv], cwd=self.root, env=self.env,
                stdout=out, stderr=subprocess.PIPE, text=True, timeout=REQUEST_TIMEOUT_S,
            )
        return proc.returncode, path, proc.stderr

    def replay(self, argv: list[str]):
        if self.cache_clear is not None:
            self.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.pkg.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the subprocess would print this and exit 1
                traceback.print_exc()
                code = 1
        path = self._out_path()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(out.getvalue())
        return code, path, err.getvalue()

    def run(self, k: int):
        argv = self.requests[k]["argv"]
        return self.replay(argv) if self.in_process else self.spawn(argv)

    def check(self, k: int, output) -> list[str]:
        code, path, err = output
        with open(path, encoding="utf-8") as handle:
            out = handle.read()
        return checks.check_cli(self.requests[k], code, out, err, self.root)

    def bytes_out(self, output) -> int:
        return os.path.getsize(output[1])


WORKLOADS = {"analyze": Analyze, "decide": Decide, "cli": Cli}
