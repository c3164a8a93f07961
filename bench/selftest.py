"""Self-test of the benchmark's checks: one wrong expected value must count.

    python3 bench/selftest.py

Runs one small request per CLI subcommand, checks every report against its
oracle (all must pass), pins the oracles to literal optima, then corrupts a
single expected value and requires exactly that request to fail, so the
failure fraction rises from 0. Exits 0 when all of this holds.
"""

from __future__ import annotations

import functools
import os
import random
import shutil
import sys
from fractions import Fraction

import oracles
import run
import workloads
from workloads import CLI_BUDGET, Request


def _requests(lab, workdir) -> list[Request]:
    files = workloads._protocol_setup(lab, workdir, random.Random(0))["files"]
    broadcast = next(f for f in files if f.bits is not None)
    rand = next(f for f in files if f.bits is None)
    deltas = [Fraction(1, 2), Fraction(3, 4)]
    return [
        Request(
            "addition",
            ["addition", "--t", "4", "--r", "64", "--seed", "7"],
            functools.partial(workloads._addition_oracle, lab, 4, 64, 7),
        ),
        Request(
            "rect-scan",
            ["rect-scan", "--n", "4", "--k", "2", "--delta-grid", "1/2,3/4"],
            functools.partial(oracles.rect_scan_expected, 4, 2, deltas, CLI_BUDGET),
        ),
        Request(
            "search",
            ["search", "--n", "2", "--k", "3", "--eps-budget", "1/10"],
            functools.partial(oracles.search_expected, 2, 3, Fraction(1, 10)),
        ),
        Request(
            "tradeoff",
            ["tradeoff", "--n", "8", "--k", "2", "--delta-grid", "1/2,3/4"],
            functools.partial(
                oracles.tradeoff_expected, 8, 2, list(workloads.TRADEOFF_EPS), deltas
            ),
        ),
        Request(
            "quantum",
            ["quantum", "--n", "3", "--k", "4"],
            functools.partial(oracles.quantum_expected, 3, 4),
        ),
        Request(
            "protocol-run",
            ["protocol-run", "--tree", str(rand.protocol_path), "--evaluate"],
            functools.partial(workloads._protocol_oracle, rand.protocol_path),
        ),
        Request(
            "lhv-eval",
            ["lhv-eval", "--n", str(broadcast.n), "--k", str(broadcast.k),
             "--model", str(broadcast.model_path)],
            functools.partial(workloads._lhv_oracle, lab, broadcast),
        ),
    ]


def main() -> int:
    lab = run.import_lab()
    problems = []
    if oracles.best_deterministic_error(3, 2) != Fraction(1, 4):
        problems.append("n=3, k=2 deterministic error is not 1/4")
    if oracles.eta_star(3, 2, Fraction(0)) != Fraction(1, 2):
        problems.append("n=3, k=2 eta* at eps 0 is not 1/2")

    workdir = run.BENCH / ".work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        requests = _requests(lab, workdir)
        pairs = [(req, run.run_request(lab, req)) for req in requests]
        honest = run.failures(pairs)
        problems += [f"honest oracle failed: {f}" for f in honest]

        victim = requests[1]
        right = victim.expect()
        key = ("scans", 0, "r_cap")
        wrong = {**right, key: right[key] + Fraction(1, 1000)}
        pairs[1] = (Request(victim.cls, victim.argv, lambda: wrong), pairs[1][1])
        tampered = run.failures(pairs)
        fail_frac = len(tampered) / len(pairs)
        if len(tampered) != 1 or "r_cap" not in tampered[0]:
            problems.append(f"one wrong expected value gave failures {tampered}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print(f"honest fail_frac {len(honest) / len(pairs):.3f}, one wrong value {fail_frac:.3f}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
