"""Robustness probes for the cli workload.

Each probe is one CLI invocation on an input that once crashed the program.
It passes with the right answer, checked here, or, where the probe allows
it, with a clean refusal: exit 1 or 2 and a single `error:` line on stderr.
The two `count` probes ask for counts the README promises to print in full,
so a refusal does not pass them.  Probes run outside the timed phase: they
count in `cli.probe_failures`, never in `failed`, latency or throughput, so
turning a fast crash into a slower right answer is not a regression.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import checks
import logic as L

#: Seconds one probe may take before it counts as failed.
PROBE_TIMEOUT_S = 15

# count --n 3000 --kind leaves is 2 * (ordered Bell number of 3000).  Its
# digit count and residues were computed once with logic.ordered_bell and
# confirmed with the binomial recurrence a(n) = sum_k C(n, k) a(n - k) mod p.
_LEAVES_3000 = {"digits": 9609, "leading": "199881443907",
                10**9 + 7: 768993799, 998244353: 822101005,
                2**61 - 1: 626202164639383961}


def _exact_line(value: int):
    return lambda out: out.strip() == str(value)


def _leaves_3000(out: str) -> bool:
    text = out.strip()
    if not text.isdigit() or len(text) != _LEAVES_3000["digits"]:
        return False
    if not text.startswith(_LEAVES_3000["leading"]):
        return False
    value = int(text)
    return all(value % m == r for m, r in _LEAVES_3000.items() if isinstance(m, int))


def _verdict(formula: str, n: int):
    """Tautology verdict at n <= 2 from the class witnesses 0, 1/3, 2/3, 1
    (every order pattern of two variables occurs among them)."""
    f = L.parse(formula)
    grid = [Fraction(k, 3) for k in range(4)]
    points = [(a,) for a in grid] if n == 1 else [(a, b) for a in grid for b in grid]
    taut = all(L.evaluate(f, p) == 1 for p in points)
    line = "tautology" if taut else "not a tautology"
    return lambda out: out.strip() == line


_NEGATIONS = "~" * 3000 + "X1"
_PARENS = "(" * 1200 + "X1 -> X1" + ")" * 1200
_DISJUNCTION = " | ".join(["(X1 -> X2)", "(X2 -> X1)"] * 550)

# (name, argv, answer check or None, whether a clean refusal passes)
PROBES = (
    ("classify-zero-denominator", ["classify", "--values", "1/0"], None, True),
    ("count-weak-ruspini-n7", ["count", "--n", "7", "--kind", "weak-ruspini"],
     _exact_line(L.count_weak_ruspini(7)), False),
    ("count-leaves-n3000", ["count", "--n", "3000", "--kind", "leaves"], _leaves_3000, False),
    ("taut-3000-negations", ["taut", "--n", "1", _NEGATIONS], _verdict(_NEGATIONS, 1), True),
    # Parentheses do not change the formula, so its verdict is that of the
    # core (which also keeps logic.parse clear of the deep nesting).
    ("taut-1200-parentheses", ["taut", "--n", "1", _PARENS], _verdict("X1 -> X1", 1), True),
    ("taut-1100-term-disjunction", ["taut", "--n", "2", _DISJUNCTION],
     _verdict(_DISJUNCTION, 2), True),
)


def outcome(code: int, out: str, err: str, answer, refusal_ok: bool) -> str:
    """answer / refused-ok pass; wrong, refused, crash fail."""
    if code == 0 and not checks.has_traceback(err):
        return "answer" if answer is not None and answer(out) else "wrong"
    if checks.clean_error(code, err):
        return "refused-ok" if refusal_ok else "refused"
    return "crash"


def run_probes(env: dict, cwd: str) -> list[tuple[str, str]]:
    """Run every probe as a subprocess; return (name, outcome) pairs."""
    results = []
    for name, argv, answer, refusal_ok in PROBES:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "godelforest.cli", *argv], cwd=cwd, env=env,
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            results.append((name, "timeout"))
            continue
        results.append((name, outcome(proc.returncode, proc.stdout, proc.stderr,
                                      answer, refusal_ok)))
    return results


PASSING = ("answer", "refused-ok")
