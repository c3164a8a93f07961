"""Benchmark of nonlocal-lab's CLI verdicts, end to end and per layer.

Run one workload (each run is its own process, one client, one thread):

    python3 bench/run.py --workload rect-caps --seed 1 --seconds 25 --trace 0

or every workload, each in a fresh process, with a summary table:

    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

A request is one real CLI invocation, ``nonlocal_lab.cli.main(argv)``, run
in-process with its output captured. Requests are issued back to back (a
closed loop) in whole rounds of the workload's fixed mix until ``--seconds``
have passed; see ``workloads.py`` for the mixes and why each was chosen.
After the timed loop every report is parsed and compared, field by field,
with an independent route (``oracles.py``). A request fails on an exception,
a nonzero exit, ``passed: false`` or any field that differs from the oracle.

The host's CPU speed drifts by tens of percent over minutes, so every time
is reported at a reference speed: a fixed pure-Python loop (``reference``)
runs before each request, and each measured time is multiplied by
``REFERENCE_S`` over the median loop time of the eleven nearest samples. The
raw figures and the loop's median are in the detail line.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time from process start
  to the first request (importing ``nonlocal_lab``, writing input files);
* ``verdicts_per_s``: checked verdicts per second of request time;
* ``latency_p50_ms``; ``latency_tail_ms``, the latency with exactly ten
  samples above it (its percentile and sample count are in the detail line);
* ``peak_rss_mb``: the run's ``ru_maxrss`` at the end of the timed loop.

``--trace 1`` runs the loop for half the time untraced, replays the same
requests with every public function of the package wrapped (``layers.py``),
and reports per-layer self time, calls and counters, plus
``trace.overhead_ratio`` (traced over untraced request time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the details (versions, sample counts, failures).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from layers import Tracer
from workloads import WORKLOADS, Request

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
#: iterations of the reference loop, and a round figure for its time (about
#: 10 ms with Python 3.11.7 on a 2-core x86-64 host); it only sets the scale
REFERENCE_LOOP = 100000
REFERENCE_S = 0.01
#: reference samples on each side of a request that set its scale
REFERENCE_WINDOW = 5
#: samples that must lie above the reported tail latency
TAIL_BEYOND = 10
MODULES = ("cli", "cyclic", "ghz", "model", "protocol", "serialize")


def import_lab():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        lab = importlib.import_module("nonlocal_lab")
        for name in MODULES:
            importlib.import_module(f"nonlocal_lab.{name}")
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import nonlocal_lab from {src}: {exc}")
    location = Path(lab.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SystemExit(f"bench: nonlocal_lab resolved to {location}, outside {src}")
    return lab


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------- requests


def reference() -> float:
    """Seconds taken by a fixed pure-Python integer loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


@dataclass
class Outcome:
    latency: float
    code: Any
    stdout: str
    stderr: str
    #: the exception the request raised, if any
    error: str
    #: reference loop time measured just before the request
    reference: float
    #: factor converting this request's times to the reference speed
    scale: float = 1.0


def run_request(lab, req: Request) -> Outcome:
    ref = reference()
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lab.cli.main(req.argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # the request fails; the loop goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return Outcome(latency, code, out.getvalue(), err.getvalue().strip(), error, ref)


def rescale(outcomes: list[Outcome]) -> None:
    """Set each outcome's scale from the reference samples around it."""
    refs = [o.reference for o in outcomes]
    for i, o in enumerate(outcomes):
        near = refs[max(0, i - REFERENCE_WINDOW) : i + REFERENCE_WINDOW + 1]
        o.scale = REFERENCE_S / statistics.median(near)


def decode(value: Any) -> Any:
    """Report JSON to Python values: rationals to Fraction, "inf" to inf."""
    if isinstance(value, dict):
        if set(value) == {"num", "den"}:
            return Fraction(int(value["num"]), int(value["den"]))
        return {k: decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(v) for v in value]
    if value == "inf":
        return math.inf
    return value


def _matches(actual: Any, expected: Any) -> bool:
    if callable(expected):
        return bool(expected(actual))
    if isinstance(expected, float) and math.isfinite(expected):
        return isinstance(actual, float) and abs(actual - expected) <= 1e-12 * max(
            1.0, abs(expected)
        )
    if isinstance(expected, bool) or isinstance(actual, bool):
        return actual is expected
    return actual == expected


def check(req: Request, outcome: Outcome) -> Optional[str]:
    """None when the report matches the oracle, else the first difference."""
    if outcome.error:
        return outcome.error
    if outcome.code != 0:
        return f"exit code {outcome.code}: {outcome.stderr}"
    try:
        report = decode(json.loads(outcome.stdout))
    except ValueError:
        return "report is not JSON"
    if report.get("passed") is not True:
        return "passed is not true"
    try:
        expected = req.expect()
        for path, want in expected.items():
            got: Any = report
            for key in path:
                got = got[key]
            if not _matches(got, want):
                return f"{'.'.join(map(str, path))}: got {got!r}, expected {want!r}"
    except (KeyError, IndexError, TypeError) as exc:
        return f"report lacks a checked field: {exc!r}"
    except Exception as exc:  # an oracle that cannot evaluate this report
        return f"oracle error: {type(exc).__name__}: {exc}"
    return None


def failures(pairs: list[tuple[Request, Outcome]]) -> list[str]:
    out = []
    for req, outcome in pairs:
        reason = check(req, outcome)
        if reason is not None:
            out.append(f"{' '.join(req.argv)}: {reason}")
    return out


# ---------------------------------------------------------------- loops


def timed_loop(lab, workload, ctx: dict, rng: random.Random, seconds: float):
    """Whole rounds of the mix until ``seconds`` have passed."""
    pairs: list[tuple[Request, Outcome]] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for req in workload.round(lab, ctx, rng):
            pairs.append((req, run_request(lab, req)))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            rescale([o for _, o in pairs])
            return pairs, rounds


def traced_replay(lab, requests: list[Request], tracer: Tracer):
    pairs = []
    tracer.install()
    try:
        for req in requests:
            tracer.new_request(req.input_bytes)
            pairs.append((req, run_request(lab, req)))
    finally:
        tracer.uninstall()
    rescale([o for _, o in pairs])
    return pairs


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, spawn to ready for the first request,
    each at the reference speed measured just before it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        scale = REFERENCE_S / statistics.median(reference() for _ in range(2 * REFERENCE_WINDOW + 1))
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"bench: set-up probe exited with {code}")
        samples.append(ready * scale)
    return samples


def request_time(pairs: list[tuple[Request, Outcome]]) -> float:
    """Total request time at the reference speed."""
    return sum(o.latency * o.scale for _, o in pairs)


def latency_metrics(latencies: list[float]) -> tuple[float, float, float]:
    """Median, tail (ten samples above it) and the tail's percentile."""
    lat = sorted(latencies)
    if len(lat) > TAIL_BEYOND:
        index = len(lat) - TAIL_BEYOND - 1
    else:
        index = len(lat) - 1
    return statistics.median(lat), lat[index], 100.0 * (index + 1) / len(lat)


# ---------------------------------------------------------------- entry points


def run_workload(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    lab = import_lab()
    os.environ.pop("NONLOCAL_LAB_BUDGET", None)  # the CLI's default budget applies
    workdir = BENCH / ".work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workload.setup(lab, workdir, random.Random(args.seed))
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else probe_setup(workload.name, args.seed)
        rng = random.Random(args.seed)
        ctx = workload.setup(lab, workdir, rng)
        seconds = args.seconds / 2 if args.trace else args.seconds
        pairs, rounds = timed_loop(lab, workload, ctx, rng, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        detail: dict[str, Any] = {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nonlocal_lab": str(Path(lab.__file__).resolve().relative_to(ROOT)),
            "git_sha": git_sha(),
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "rounds": rounds,
        }
        if args.trace:
            tracer = Tracer(lab)
            traced = traced_replay(lab, [r for r, _ in pairs], tracer)
            idle = [layer for layer in workload.main_layers if tracer.calls[layer] == 0]
            if idle:
                sys.stderr.write(f"bench: traced run saw no calls into {', '.join(idle)}\n")
                return 3
            metrics = tracer.metrics(statistics.median(o.scale for _, o in traced))
            overhead = request_time(traced) / request_time(pairs)
            metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
            detail["unmeasured"] = tracer.unmeasured + sorted(tracer.broken_hooks)
            pairs = pairs + traced
        checking = time.perf_counter()
        failed = failures(pairs)
        detail["check_s"] = time.perf_counter() - checking
        detail["fail_frac"] = len(failed) / len(pairs)
        if not args.trace:
            p50, tail, tail_pct = latency_metrics([o.latency * o.scale for _, o in pairs])
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "verdicts_per_s": {
                    "value": (len(pairs) - len(failed)) / request_time(pairs),
                    "unit": "1/s",
                },
                "latency_p50_ms": {"value": p50 * 1000, "unit": "ms"},
                "latency_tail_ms": {"value": tail * 1000, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            raw_p50, raw_tail, _ = latency_metrics([o.latency for _, o in pairs])
            per_class: dict[str, list[float]] = {}
            for req, outcome in pairs:
                per_class.setdefault(req.cls, []).append(outcome.latency * outcome.scale)
            detail.update(
                setup_samples_s=setup,
                tail_percentile=tail_pct,
                tail_samples=len(pairs),
                reference_ms=statistics.median(o.reference for _, o in pairs) * 1000,
                raw={
                    "verdicts_per_s": len(pairs) / sum(o.latency for _, o in pairs),
                    "latency_p50_ms": raw_p50 * 1000,
                    "latency_tail_ms": raw_tail * 1000,
                },
                classes={
                    cls: {"count": len(v), "median_ms": statistics.median(v) * 1000}
                    for cls, v in sorted(per_class.items())
                },
            )
        detail["failures"] = failed[:5]
        print(json.dumps({"detail": detail}))
        print(
            json.dumps(
                {
                    "correct": not failed,
                    "attempted": len(pairs),
                    "failed": len(failed),
                    "metrics": metrics,
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one table of all metrics."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        print(f"{name}: {lines[-2]}")
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        rows.append((name, "failed", f"{result['failed']}/{result['attempted']}", ""))
        for metric, m in result["metrics"].items():
            rows.append((name, metric, f"{m['value']:.6g}", m["unit"]))
    for row in rows:
        print(f"{row[0]:14s} {row[1]:34s} {row[2]:>14s} {row[3]}")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
