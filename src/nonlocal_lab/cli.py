"""Command-line surface: reproducible experiment runs with machine-readable
reports.

Subcommands: quantum, lhv-eval, search, rect-scan, addition, tradeoff,
protocol-run. Reports are one-line JSON on stdout by default (CSV via
``--format csv``); the exit code is 0 exactly when every verification the
run requested passed. Every randomized run records its seed, and replaying
the same configuration is bit-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from typing import Any, Callable, NoReturn, Optional, Sequence

from . import cyclic, ghz, model, protocol, rectangles, search, serialize
from .errors import (
    DEFAULT_BUDGET,
    CrossCheckMismatch,
    EmptyIntersection,
    InvalidInput,
    NonlocalLabError,
    NotPowerOfTwo,
    TooFewSets,
    check_budget,
    printable,
    table_fits,
)


def _jsonify(obj: Any) -> Any:
    if type(obj) is int:  # the bulk of a report (per-leaf costs): already JSON
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    return serialize.number_to_json(obj)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(text) from exc  # argparse turns it into a usage error


def _grid_arg(text: str) -> list[Fraction]:
    return [_fraction_arg(part) for part in text.split(",") if part]


def _int_grid_arg(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _decimal(value: Any) -> Any:
    """Decimal rendering next to exact rationals in reports."""
    if isinstance(value, Fraction):
        return float(value)
    return value


def _load_json(path: str, decode: Callable[[Any], Any]) -> Any:
    """Read and decode one input file; a file that cannot be read, is not
    JSON or does not match the codec is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InvalidInput(f"{path} is not JSON: {exc}") from exc
    except RecursionError as exc:  # about 1,000 nested arrays and objects
        raise InvalidInput(f"{path} nests too deeply to read: {exc}") from exc
    try:
        return decode(payload)
    except NonlocalLabError:
        raise
    except RecursionError as exc:
        raise InvalidInput(f"{path} nests too deeply to decode: {exc}") from exc
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(
            f"{path} does not match the expected schema: {type(exc).__name__}: {exc}"
        ) from exc


def _write_text(path: str, text: str) -> None:
    """Write one output file; a path that cannot be written is bad input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_quantum(args: argparse.Namespace) -> tuple[dict, bool]:
    inst = ghz.GhzInstance(n=args.n, k=args.k)
    ghz.check_orbit_budget(inst, args.budget)
    if args.export_problem:  # a per-input problem, under the valid-input budget
        problem = ghz.ghz_problem(inst, budget=args.budget)
        _write_text(args.export_problem, serialize.dumps(serialize.problem_to_json(problem)))
    dev = ghz.equivalence_max_deviation(inst)
    count = inst.valid_input_count()
    table: Optional[list[dict]] = None
    if table_fits(count * 2**inst.n, args.budget):
        outcomes = list(itertools.product(range(2), repeat=inst.n))
        table = []
        for x in ghz.valid_inputs(inst):
            # an outcome enters only through its parity, and its sign flips
            # are exact: one probability per parity, outcomes[0] and [1]
            per_parity = [
                (ghz.quantum_probability(inst, x, a), ghz.target_probability(inst, x, a))
                for a in outcomes[:2]
            ]
            for a in outcomes:
                q, t = per_parity[sum(a) % 2]
                table.append({"x": list(x), "a": list(a), "quantum": q, "target": t})
    passed = dev.relative < ghz.AMPLITUDE_TOLERANCE
    report = {
        "command": "quantum",
        "params": {"n": args.n, "k": args.k, "budget": args.budget},
        "valid_inputs": printable(count, f"{inst.k}^{inst.n - 1}"),
        "max_deviation": dev.absolute,
        "max_relative_deviation": dev.relative,
        "tolerance": ghz.AMPLITUDE_TOLERANCE,
        "table": table,
        "passed": passed,
    }
    return report, passed


def cmd_lhv_eval(args: argparse.Namespace) -> tuple[dict, bool]:
    mixed = _load_json(args.model, serialize.mixed_lhv_from_json)
    inst = ghz.GhzInstance(n=args.n, k=args.k)
    problem = ghz.ghz_problem(inst, budget=args.budget)
    metrics = model.mixed_lhv_metrics(mixed, problem)
    report = {
        "command": "lhv-eval",
        "params": {"n": args.n, "k": args.k, "model": args.model},
        "eta_n": metrics.eta_n,
        "eta": metrics.eta,
        "eps": metrics.eps,
        "eps_var": metrics.eps_var,
        "decimals": {
            "eta_n": _decimal(metrics.eta_n),
            "eps": _decimal(metrics.eps),
            "eps_var": _decimal(metrics.eps_var),
        },
        "passed": True,
    }
    return report, True


def cmd_search(args: argparse.Namespace) -> tuple[dict, bool]:
    inst = ghz.GhzInstance(n=args.n, k=args.k)
    points = search.class_points(inst, budget=args.budget)
    det = search.click_only_minimum(points)
    lp = search.eta_star(points, args.eps_budget)
    route, ok = search.recheck_witnesses(inst, args.eps_budget, lp, det, args.budget)
    report = {
        "command": "search",
        "params": {
            "n": args.n,
            "k": args.k,
            "eps_budget": args.eps_budget,
            "budget": args.budget,
        },
        "best_deterministic_error": {
            "optimum": det.optimum,
            "enumerated": det.enumerated,
            "witness": serialize.lhv_to_json(det.witness),
        },
        "eta_star_lp": {
            "optimum": lp.optimum,
            "enumerated": lp.enumerated,
            "witness": {
                **serialize.mixed_lhv_to_json(lp.witness),
                "averaged_over": search.AVERAGED_OVER,
            },
        },
        "witnesses_recheck": ok,
        "witnesses_recheck_by": route,
        "passed": ok,
    }
    return report, ok


def cmd_rect_scan(args: argparse.Namespace) -> tuple[dict, bool]:
    inst = ghz.GhzInstance(n=args.n, k=args.k)
    scans = rectangles.scan_rectangles(inst, args.delta_grid, budget=args.budget)

    relation_ok = True
    stats: list[rectangles.RectangleStats] = []
    stats_csv = None
    if table_fits((2**inst.k - 1) ** inst.n, args.budget):
        problem = ghz.ghz_problem(inst)
        for r in rectangles.iter_rectangles(inst):
            try:
                record = rectangles.rectangle_stats(r, inst)
            except EmptyIntersection:
                continue
            # evaluate every record, also after a failure, as "checked" reports
            relation_ok &= rectangles.advantage_bias_relation(record, problem)
            stats.append(record)
        stats_csv = rectangles.stats_to_csv(stats)
    passed = relation_ok
    report = {
        "command": "rect-scan",
        "params": {
            "n": args.n,
            "k": args.k,
            "budget": args.budget,
            "delta_grid": list(args.delta_grid),
        },
        "scans": [
            {
                "delta": s.delta,
                "r_cap": s.r_cap,
                "exact": True,
                "examined": s.examined,
                "witness": [sorted(part) for part in s.witness] if s.witness else None,
            }
            for s in scans
        ],
        "advantage_bias_relation": {
            "checked": len(stats),
            "all_passed": relation_ok,
        },
        "stats_csv": stats_csv,
        "passed": passed,
    }
    return report, passed


def cmd_addition(args: argparse.Namespace) -> tuple[dict, bool]:
    if args.t > 0:  # each draw holds up to T elements, and r below T^3 is refused
        check_budget(
            lambda r: r * args.t,
            args.r,
            args.budget,
            "drawn elements (r*T)",
            f"{args.r}*{args.t}",
            f"T={args.t}",
            name="r",
            least=args.t**3,
        )
    if args.t < 2 or args.t & (args.t - 1):
        raise NotPowerOfTwo(f"T must be a power of two >= 2, got {args.t}")
    if args.r < args.t**3:
        raise TooFewSets(f"need r >= T^3 = {args.t**3} sets, got r = {args.r}")
    rng = random.Random(args.seed)
    # each draw is counted at once, so only its distinct sets are kept
    general = Counter(cyclic.random_subset_masks(args.t, args.r, rng, min_size=2))
    addition = cyclic.verify_addition_masks(args.t, general)
    pairs = Counter(cyclic.random_subset_masks(args.t, args.r, rng, min_size=2, max_size=2))
    size2 = cyclic.verify_size2_masks(args.t, pairs)
    passed = addition.passed and size2.passed
    report = {
        "command": "addition",
        "params": {"T": args.t, "r": args.r, "seed": args.seed},
        "addition_theorem": {
            "bias": addition.bias,
            "bias_decimal": _decimal(addition.bias),
            "bound": addition.bound,
            "subgroup": serialize.subgroup_to_json(addition.subgroup),
            "passed": addition.passed,
        },
        "size2_sets": {
            "bias": size2.bias,
            "bias_decimal": _decimal(size2.bias),
            "bound": size2.bound,
            "majority_difference": size2.majority_difference,
            "majority_count": size2.majority_count,
            "subgroup": serialize.subgroup_to_json(size2.subgroup),
            "passed": size2.passed,
        },
        "passed": passed,
    }
    return report, passed


def cmd_tradeoff(args: argparse.Namespace) -> tuple[dict, bool]:
    inst = ghz.GhzInstance(n=args.n, k=args.k)
    table = search.tradeoff_table(
        inst,
        c_grid=args.c_grid,
        eps_grid=args.eps_grid,
        delta_grid=tuple(args.delta_grid),
        budget=args.budget,
    )
    passed = True
    rows = []
    for row in table.rows:
        consistent = (
            row.achievable_eta_n is None
            or row.bound_eta_n is None
            or row.achievable_eta_n <= row.bound_eta_n
        )
        passed = passed and consistent
        rows.append(
            {
                "c": row.c,
                "eps": row.eps,
                "achievable_eta_n": row.achievable_eta_n,
                "achievable_source": row.achievable_source,
                "bound_eta_n": row.bound_eta_n,
                "bound_exact": True,
                "consistent": consistent,
            }
        )
    report = {
        "command": "tradeoff",
        "params": {
            "n": args.n,
            "k": args.k,
            "c_grid": args.c_grid,
            "eps_grid": list(args.eps_grid),
            "delta_grid": list(args.delta_grid),
            "budget": args.budget,
        },
        "scans": [
            {"delta": s.delta, "r_cap": s.r_cap, "exact": True} for s in table.scans
        ],
        "rows": rows,
        "passed": passed,
    }
    return report, passed


def _protocol_from_json(payload: Any) -> protocol.MixedProtocol:
    if "components" in payload:
        return serialize.mixed_protocol_from_json(payload)
    tree = serialize.tree_from_json(payload)
    return protocol.MixedProtocol(components=((tree, Fraction(1)),))


def cmd_protocol_run(args: argparse.Namespace) -> tuple[dict, bool]:
    mixed = _load_json(args.tree, _protocol_from_json)
    # decoded files share subtrees: check each distinct leaf once
    leaves = protocol.distinct_leaves(t for t, _ in mixed.components)
    model.check_output_alphabet((leaf.lhv for leaf in leaves), ghz.OUTPUTS)
    costs = [protocol.cost_details(t) for t, _ in mixed.components]
    c = max(cd.worst_case for cd in costs)
    report: dict[str, Any] = {
        "command": "protocol-run",
        "params": {"tree": args.tree, "n": mixed.n, "k": mixed.k},
        "cost": c,
        "per_component_costs": [
            {"worst_case": cd.worst_case, "per_leaf": list(cd.per_leaf)} for cd in costs
        ],
    }
    passed = True
    if args.input:
        try:
            x = tuple(int(v) for v in args.input.split(","))
        except ValueError as exc:
            raise InvalidInput(f"--input must be comma-separated ints: {exc}") from exc
        runs = []
        for t, w in mixed.components:
            leaf_id, outcome = protocol.execute(t, x)
            runs.append(
                {
                    "weight": w,
                    "leaf": leaf_id,
                    "outcome": serialize.outcome_to_json(outcome),
                }
            )
        report["execution"] = {"x": list(x), "runs": runs}
    if args.evaluate:
        inst = ghz.GhzInstance(n=mixed.n, k=mixed.k)
        problem = ghz.ghz_problem(inst, budget=args.budget)
        eta_n, eps = protocol.induced_metrics(mixed, problem)
        detector = protocol.to_detector_model(mixed)
        det_metrics = model.mixed_lhv_metrics(detector, problem)
        conversion_ok = (
            det_metrics.eta_n == Fraction(1, 2**c) and det_metrics.eps == eps
        )
        passed = conversion_ok
        report["evaluation"] = {
            "eta_n": eta_n,
            "eps": eps,
            "detector_eta_n": det_metrics.eta_n,
            "detector_eps": det_metrics.eps,
            "conversion_ok": conversion_ok,
        }
    report["passed"] = passed
    return report, passed


def _flatten(w: Any, prefix: str, obj: Any) -> None:
    """One CSV row per leaf of a report. A module function, not a closure:
    a closure that calls itself is a reference cycle."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(w, f"{prefix}.{key}" if prefix else str(key), value)
    elif isinstance(obj, (list, tuple)):
        w.writerow([prefix, " ".join(str(v) for v in obj)])
    else:
        w.writerow([prefix, obj])


def _key_value_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["key", "value"])
    _flatten(w, "", _jsonify(report))
    return buf.getvalue()


#: per command, the report field holding its CSV table and the columns written
_CSV_TABLES = {
    "quantum": ("table", ("x", "a", "quantum", "target")),
    "rect-scan": ("scans", ("delta", "r_cap", "exact", "examined")),
    "tradeoff": (
        "rows",
        ("c", "eps", "achievable_eta_n", "achievable_source", "bound_eta_n", "consistent"),
    ),
}


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def _table_csv(report: dict, field: str, columns: Sequence[str]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(columns)
    for row in report[field] or []:
        w.writerow([_csv_cell(row[c]) for c in columns])
    return buf.getvalue()


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.format == "csv":
        if report.get("stats_csv"):  # rect-scan's per-rectangle table, when small
            text = report["stats_csv"]
        elif report["command"] in _CSV_TABLES:
            text = _table_csv(report, *_CSV_TABLES[report["command"]])
        else:
            text = _key_value_csv(report)
    else:
        text = serialize.dumps(_jsonify(report)) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser, need_nk: bool = True) -> None:
    if need_nk:
        p.add_argument("--n", type=int, required=True, help="number of parties")
        p.add_argument("--k", type=int, required=True, help="settings per party")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"enumeration cap (default {DEFAULT_BUDGET})",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, default=None, help="write the report to a file")


class _Parser(argparse.ArgumentParser):
    """A usage error exits 2 with one line, like every other bad input."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonlocal-lab",
        description="Desk-scale, exactly-verified multiparty nonlocality experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantum", help="quantum vs target comparison table")
    _add_common(p)
    p.add_argument(
        "--export-problem",
        type=str,
        default=None,
        help="also write the induced correlation problem as JSON",
    )
    p.set_defaults(fn=cmd_quantum)

    p = sub.add_parser("lhv-eval", help="evaluate a mixed local model on the ideal problem")
    _add_common(p)
    p.add_argument("--model", type=str, required=True, help="MixedLhv JSON file")
    p.set_defaults(fn=cmd_lhv_eval)

    p = sub.add_parser("search", help="optimal classical figures at small sizes")
    _add_common(p)
    p.add_argument("--eps-budget", type=_fraction_arg, default=Fraction(0))
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("rect-scan", help="rectangle weight caps per advantage threshold")
    _add_common(p)
    p.add_argument("--delta-grid", type=_grid_arg, default="1/2,3/4,7/8")
    p.set_defaults(fn=cmd_rect_scan)

    p = sub.add_parser("addition", help="cyclic-group bias-bound verifications")
    p.add_argument("--t", type=int, required=True, help="cyclic group order (power of two)")
    p.add_argument("--r", type=int, required=True, help="number of random subsets")
    _add_common(p, need_nk=False)
    p.add_argument("--seed", type=int, default=0, help="seed recorded for replay")
    p.set_defaults(fn=cmd_addition)

    p = sub.add_parser("tradeoff", help="achievable vs bound efficiency table")
    _add_common(p)
    p.add_argument("--c-grid", type=_int_grid_arg, default=None)
    p.add_argument("--eps-grid", type=_grid_arg, default="0,1/10,1/4")
    p.add_argument("--delta-grid", type=_grid_arg, default="1/2,3/4,7/8")
    p.set_defaults(fn=cmd_tradeoff)

    p = sub.add_parser("protocol-run", help="run or evaluate a protocol tree file")
    p.add_argument("--tree", type=str, required=True, help="ProtocolTree/MixedProtocol JSON")
    p.add_argument("--input", type=str, default=None, help="comma-separated input vector")
    p.add_argument("--evaluate", action="store_true", help="evaluate on the ideal problem")
    _add_common(p, need_nk=False)
    p.set_defaults(fn=cmd_protocol_run)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process. Parsing leaves it unchanged (string defaults
    are converted afresh on every parse), and each fresh build leaves about
    500 objects of cyclic garbage behind, which in-process callers of
    :func:`main` would pile up between full collections."""
    return build_parser()


class _CollectorPaused:
    """The cyclic garbage collector off for one request, then back as the
    caller had it (off stays off). A class, not a generator: leaving it
    allocates nothing, so re-enabling cannot start a collection at once."""

    def __enter__(self) -> None:
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self.was_enabled:
            gc.enable()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one request; the exit code is 0 when every requested verification
    passed, 1 when one failed and 2 on bad input.

    The subcommand and its output run with the cyclic garbage collector
    paused. Every object a request builds is freed by reference counting
    when it ends (no request creates a reference cycle, which a test pins),
    yet a decoded protocol or model file keeps tens of thousands of
    containers alive, and with the collector on they set off dozens of
    collections per request that find nothing.
    """
    args = _parser().parse_args(argv)
    if args.command == "tradeoff" and args.c_grid is None:
        args.c_grid = list(range(0, args.n * max(1, math.ceil(math.log2(args.k))) + 1))
    try:
        if args.budget < 1:
            raise InvalidInput(f"the budget must be a positive integer, got '{args.budget}'")
        with _CollectorPaused():
            report, passed = args.fn(args)
            _emit(report, args)
    except NonlocalLabError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        # a cross-check failure is a failed verification, not bad input
        return 1 if isinstance(exc, CrossCheckMismatch) else 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
