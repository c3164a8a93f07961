"""Command-line surface: exit codes, report schemas, formats, and replay."""

import csv
import errno
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import random_mixed_lhv
from nonlocal_lab import cyclic, ghz, serialize
from nonlocal_lab.cli import main
from nonlocal_lab.errors import TABLE_LIMIT
from nonlocal_lab.ghz import GhzInstance, broadcast_strategy

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quantum_exit_zero_and_report(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--n", "3", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_deviation"] < 1e-12
    assert len(report["table"]) == 4 * 8


def test_quantum_rejects_small_party_count(capsys):
    code, out, err = run_cli(capsys, "quantum", "--n", "1", "--k", "2")
    assert code == 2
    assert "InvalidInput" in err


def test_quantum_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "quantum", "--n", "6", "--k", "8", "--budget", "10")
    assert code == 2
    assert "BudgetExceeded" in err


def test_quantum_export_problem(tmp_path, capsys):
    target = tmp_path / "problem.json"
    code, _, _ = run_cli(
        capsys, "quantum", "--n", "3", "--k", "2", "--export-problem", str(target)
    )
    assert code == 0
    problem = serialize.problem_from_json(json.loads(target.read_text()))
    assert problem.n == 3 and len(problem.support) == 4


def test_quantum_csv_format(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--n", "2", "--k", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "a", "quantum", "target"]
    assert len(rows) == 1 + 2 * 4


def test_search_report(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--k", "2", "--eps-budget", "0")
    assert code == 0
    report = json.loads(out)
    assert report["best_deterministic_error"]["optimum"] == {"num": "1", "den": "4"}
    assert report["eta_star_lp"]["optimum"] == {"num": "1", "den": "2"}
    assert report["witnesses_recheck"] is True


def test_search_walks_the_strategies_once(capsys, monkeypatch):
    from nonlocal_lab import search

    walk = search._lowest_mass_per_pattern
    calls = []
    monkeypatch.setattr(search, "_lowest_mass_per_pattern", lambda p: calls.append(1) or walk(p))
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--k", "2", "--eps-budget", "1/10")
    assert code == 0 and json.loads(out)["passed"] is True
    assert len(calls) == 1  # both figures come from the one column walk


def test_rect_scan_report(capsys):
    code, out, _ = run_cli(capsys, "rect-scan", "--n", "3", "--k", "2")
    assert code == 0
    report = json.loads(out)
    deltas = {tuple(s["delta"].items()) for s in report["scans"]}
    assert len(deltas) == 3
    assert report["advantage_bias_relation"]["all_passed"] is True
    assert report["stats_csv"].startswith("sets,")


def test_addition_report_and_replay(capsys):
    code, out1, _ = run_cli(capsys, "addition", "--t", "4", "--r", "6400", "--seed", "3")
    assert code == 0
    report = json.loads(out1)
    assert report["passed"] is True
    assert "bias_decimal" in report["addition_theorem"]
    code, out2, _ = run_cli(capsys, "addition", "--t", "4", "--r", "6400", "--seed", "3")
    assert out1 == out2  # same seed, bit-identical report


def test_addition_error_paths(capsys):
    code, _, err = run_cli(capsys, "addition", "--t", "3", "--r", "100")
    assert code == 2 and "NotPowerOfTwo" in err
    code, _, err = run_cli(capsys, "addition", "--t", "4", "--r", "10")
    assert code == 2 and "TooFewSets" in err


def test_addition_checks_t_and_r_before_drawing(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew subsets for a request that must be refused")

    monkeypatch.setattr(cyclic, "random_subset_masks", no_draw)
    code, out, err = run_cli(capsys, "addition", "--t", "4", "--r", "-1")
    assert_one_line_exit_two(code, out, err, "TooFewSets")
    assert "need r >= T^3 = 64 sets, got r = -1" in err
    for t in ("3", "1", "0", "-4"):
        code, out, err = run_cli(capsys, "addition", "--t", t, "--r", "3000000")
        assert_one_line_exit_two(code, out, err, "NotPowerOfTwo")
        assert f"got {t}" in err and "Traceback" not in err
    code, out, err = run_cli(capsys, "addition", "--t", "8", "--r", "511")
    assert_one_line_exit_two(code, out, err, "TooFewSets")
    assert "got r = 511" in err
    # the control: a valid request does reach the patched draw
    with pytest.raises(AssertionError, match="drew subsets"):
        run_cli(capsys, "addition", "--t", "8", "--r", "512")


def test_addition_budget_bounds_the_draw(capsys):
    code, out, err = run_cli(capsys, "addition", "--t", "4", "--r", "64", "--budget", "1")
    assert_one_line_exit_two(code, out, err, "BudgetExceeded")
    assert err == (
        "BudgetExceeded: 256 drawn elements (r*T) exceed the budget of 1; no r fits at T=4\n"
    )
    code, out, err = run_cli(capsys, "addition", "--t", "16", "--r", "10000000")
    assert_one_line_exit_two(code, out, err, "BudgetExceeded")
    assert err == (
        "BudgetExceeded: 160000000 drawn elements (r*T) exceed the budget of 10000000; "
        "the largest r that fits at T=16 is 625000\n"
    )
    argv = ["addition", "--t", "4", "--r", "6400", "--seed", "3"]
    code, out, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv, "--budget", str(4 * 6400))
    assert code == code2 == 0
    assert out == out2  # a run inside the budget is unchanged


@pytest.mark.parametrize(
    "argv",
    [
        ["quantum", "--n", "3", "--k", "2"],
        ["lhv-eval", "--n", "3", "--k", "2", "--model", "model.json"],
        ["search", "--n", "3", "--k", "2"],
        ["tradeoff", "--n", "3", "--k", "2"],
        ["protocol-run", "--tree", "tree.json"],
        ["rect-scan", "--n", "3", "--k", "2"],
    ],
)
def test_seed_is_not_an_option_where_nothing_is_random(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "nonlocal-lab: error: unrecognized arguments: --seed 5\n"


def test_tradeoff_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "tradeoff",
        "--n", "3", "--k", "2",
        "--c-grid", "0,3",
        "--eps-grid", "0",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "c"
    assert len(rows) == 3  # header + two grid points


def test_tradeoff_empty_grid_is_empty_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "tradeoff",
        "--n", "3", "--k", "2",
        "--c-grid", "",
        "--eps-grid", "",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1  # header only


def test_tradeoff_budget_exceeded(capsys):
    code, _, err = run_cli(
        capsys, "tradeoff", "--n", "8", "--k", "2", "--budget", "1"
    )
    assert code == 2 and "BudgetExceeded" in err


def test_lhv_eval(tmp_path, capsys):
    rng = random.Random(2)
    model = random_mixed_lhv(rng, 3, 2)
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps(serialize.mixed_lhv_to_json(model)))
    code, out, _ = run_cli(
        capsys, "lhv-eval", "--n", "3", "--k", "2", "--model", str(path)
    )
    assert code == 0
    report = json.loads(out)
    assert report["eta_n"] == {"num": "1", "den": "1"}  # click-only model
    assert "eps_var" in report


def test_protocol_run(tmp_path, capsys):
    inst = GhzInstance(n=3, k=2)
    tree = broadcast_strategy(inst)
    path = tmp_path / "tree.json"
    path.write_text(serialize.dumps(serialize.tree_to_json(tree)))
    code, out, _ = run_cli(
        capsys,
        "protocol-run",
        "--tree", str(path),
        "--input", "1,1,0",
        "--evaluate",
    )
    assert code == 0
    report = json.loads(out)
    assert report["cost"] == 3
    assert report["evaluation"]["conversion_ok"] is True
    assert report["evaluation"]["detector_eta_n"] == {"num": "1", "den": "8"}
    outcome = report["execution"]["runs"][0]["outcome"]
    assert sum(outcome) % 2 == 1  # forced parity on (1,1,0)


def test_protocol_run_mixed_file(tmp_path, capsys):
    from nonlocal_lab.ghz import broadcast_strategy_mixed

    mp = broadcast_strategy_mixed(GhzInstance(n=2, k=2))
    path = tmp_path / "mixed.json"
    path.write_text(serialize.dumps(serialize.mixed_protocol_to_json(mp)))
    code, out, _ = run_cli(capsys, "protocol-run", "--tree", str(path), "--evaluate")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True


def test_protocol_run_charges_the_costliest_component(tmp_path, capsys):
    silent_tree = {"n": 2, "k": 2, "root": {"leaf": {"tables": [[0, 0], [0, 0]]}}}
    split_tree = {
        "n": 2,
        "k": 2,
        "root": {
            "node": {
                "party": 0,
                "edges": [
                    {"inputs": [0], "child": {"leaf": {"tables": [[0, 0], [0, 0]]}}},
                    {"inputs": [1], "child": {"leaf": {"tables": [[1, 1], [0, 0]]}}},
                ],
            }
        },
    }
    half = {"num": "1", "den": "2"}
    path = tmp_path / "mixed.json"
    path.write_text(
        json.dumps(
            {"components": [{"tree": silent_tree, "weight": half}, {"tree": split_tree, "weight": half}]}
        )
    )
    code, out, _ = run_cli(capsys, "protocol-run", "--tree", str(path), "--evaluate")
    assert code == 0
    report = json.loads(out)
    assert report["cost"] == 1
    assert [c["worst_case"] for c in report["per_component_costs"]] == [0, 1]
    assert report["evaluation"]["detector_eta_n"] == {"num": "1", "den": "2"}


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "quantum", "--n", "2", "--k", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "quantum"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_a_non_positive_budget_is_bad_input(capsys, budget):
    code, out, err = run_cli(capsys, "search", "--n", "2", "--k", "2", "--budget", budget)
    assert_one_line_exit_two(code, out, err, "InvalidInput")
    assert err == f"InvalidInput: the budget must be a positive integer, got '{budget}'\n"


@pytest.mark.parametrize(
    "argv,count,present",
    [
        (("quantum", "--n", "3", "--k", "2"), 4 * 2**3, lambda r: r["table"] is not None),
        (("rect-scan", "--n", "3", "--k", "2"), 3**3, lambda r: r["stats_csv"] is not None),
        (("tradeoff", "--n", "3", "--k", "2"), 3**6,
         lambda r: any(row["achievable_source"] == "eta_star_lp" for row in r["rows"])),
    ],
    ids=["quantum", "rect-scan", "tradeoff"],
)
def test_optional_tables_fit_the_budget_and_the_table_limit(capsys, argv, count, present):
    # valid inputs times outcomes, rectangles, and the LP's silent-allowed strategies
    assert count <= TABLE_LIMIT
    for budget, expected in ((None, True), (count, True), (count - 1, False)):
        flag = () if budget is None else ("--budget", str(budget))
        code, out, _ = run_cli(capsys, *argv, *flag)
        assert code == 0 and present(json.loads(out)) is expected


def test_rect_scan_replay_is_bit_identical(capsys):
    argv = ["rect-scan", "--n", "3", "--k", "2"]
    code, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code == code2 == 0
    assert out1 == out2


def test_rect_scan_reports_are_pinned(capsys):
    # digests recorded while rect-scan still took --mode and --seed, with
    # params.mode and params.seed taken out of those reports
    pinned = {
        ("--n", "5", "--k", "2"):
            "e5f79481e7f5171686b852dff806c0416d9df7a0199111511e31b41af6bbf7f0",
        ("--n", "3", "--k", "4"):
            "d59f08bd751e8fbb721708de1565d100fcda57a9fdba89fb6b430bd4cff8635b",
        ("--n", "64", "--k", "2"):
            "7c9c14f9dd59fdd207babc5eecab5392ea37552bb587b17d74ee8d381465443b",
    }
    for args, digest in pinned.items():
        code, out, _ = run_cli(capsys, "rect-scan", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rect_scan_builds_the_problem_once(capsys, monkeypatch):
    from nonlocal_lab import ghz

    calls = []
    build = ghz.ghz_problem

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(ghz, "ghz_problem", counted)
    code, out, _ = run_cli(capsys, "rect-scan", "--n", "5", "--k", "2")
    assert code == 0
    assert json.loads(out)["advantage_bias_relation"]["checked"] == 227
    assert len(calls) == 1


def assert_one_line_exit_two(code, out, err, name):
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"{name}:")


def test_rect_scan_checks_every_record_after_a_failure(capsys, monkeypatch):
    from nonlocal_lab import rectangles

    relation = rectangles.advantage_bias_relation
    calls = []

    def first_fails(record, problem):
        calls.append(record.sets)
        return relation(record, problem) and len(calls) > 1

    monkeypatch.setattr(rectangles, "advantage_bias_relation", first_fails)
    code, out, _ = run_cli(capsys, "rect-scan", "--n", "3", "--k", "2")
    report = json.loads(out)["advantage_bias_relation"]
    assert code == 1 and report["all_passed"] is False
    assert report["checked"] == len(calls) == len(set(calls)) == 23


def test_rect_scan_mode_and_samples_are_usage_errors(capsys):
    for option in (["--mode", "lattice"], ["--samples", "500"]):
        with pytest.raises(SystemExit) as exc:
            main(["rect-scan", "--n", "3", "--k", "2", *option])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == f"nonlocal-lab: error: unrecognized arguments: {' '.join(option)}\n"


def test_tradeoff_rejects_negative_bit_counts(capsys):
    assert_one_line_exit_two(
        *run_cli(capsys, "tradeoff", "--n", "16", "--k", "2", "--c-grid=-3",
                 "--eps-grid", "0", "--delta-grid", "7/8"),
        "InvalidInput",
    )


def test_rect_scan_over_budget_fails_at_once(capsys):
    assert_one_line_exit_two(
        *run_cli(capsys, "rect-scan", "--n", "24", "--k", "4"), "BudgetExceeded"
    )


def test_search_replay_is_bit_identical(capsys):
    code, out1, _ = run_cli(capsys, "search", "--n", "3", "--k", "2")
    code2, out2, _ = run_cli(capsys, "search", "--n", "3", "--k", "2")
    assert code == code2 == 0
    assert out1 == out2


def run_fresh(*argv):
    """One request in a fresh interpreter at the default budget; returns
    the finished process and its wall time."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "nonlocal_lab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return proc, time.perf_counter() - start


def test_search_past_the_budget_fails_fast():
    # 2**18 click-only strategies would fit; the 3**18 silent-allowed ones
    # do not, and the strategy walk does not start before the refusal
    proc, elapsed = run_fresh("search", "--n", "9", "--k", "2")
    assert_one_line_exit_two(proc.returncode, proc.stdout, proc.stderr, "BudgetExceeded")
    assert proc.stderr == (
        "BudgetExceeded: 387420489 strategies exceed the budget of 10000000; "
        "the largest n that fits at k=2 is 7\n"
    )
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "argv,expected",
    [
        # counts past CPython's int-to-text digit limit print as powers
        (("search", "--n", "2", "--k", "5000"),
         "3^10000 strategies exceed the budget of 10000000; no n fits at k=5000"),
        # the strategies are counted from the shape, before any valid input is built
        (("search", "--n", "20", "--k", "2"),
         "12157665459056928801 strategies exceed the budget of 10000000; "
         "the largest n that fits at k=2 is 7"),
        (("search", "--n", "30", "--k", "2"),
         "42391158275216203514294433201 strategies exceed the budget of 10000000; "
         "the largest n that fits at k=2 is 7"),
        # the orbit pass: C(n+1, 1) multisets of settings times n overlap factors
        (("quantum", "--n", "20000", "--k", "2"),
         "400020000 overlap factors exceed the budget of 10000000; "
         "the largest n that fits at k=2 is 3161"),
        # the scan refuses before the broadcast prefixes are computed
        (("tradeoff", "--n", "20000", "--k", "2"),
         "200030001 rectangle classes exceed the budget of 10000000; "
         "the largest n that fits at k=2 is 4470"),
        # and before its 2**40 - 1 parts are built
        (("rect-scan", "--n", "2", "--k", "40"),
         "604462909806764831539200 rectangle classes exceed the budget of 10000000; "
         "no n fits at k=40"),
        # an empty delta grid scans nothing, but its size is still counted
        (("tradeoff", "--n", "4471", "--k", "2", "--delta-grid="),
         "10001628 rectangle classes exceed the budget of 10000000; "
         "the largest n that fits at k=2 is 4470"),
        (("rect-scan", "--n", "2", "--k", "40", "--delta-grid="),
         "604462909806764831539200 rectangle classes exceed the budget of 10000000; "
         "no n fits at k=40"),
    ],
    ids=[
        "search", "search-n20", "search-n30", "quantum", "tradeoff", "rect-scan",
        "tradeoff-empty-grid", "rect-scan-empty-grid",
    ],
)
def test_huge_requests_are_refused_in_one_line(argv, expected):
    proc, elapsed = run_fresh(*argv)
    assert_one_line_exit_two(proc.returncode, proc.stdout, proc.stderr, "BudgetExceeded")
    assert proc.stderr == f"BudgetExceeded: {expected}\n"
    assert elapsed < 2.0


def test_valid_input_refusals_name_the_largest_n_that_fits(tmp_path, capsys):
    model = tmp_path / "model.json"
    mixed = random_mixed_lhv(random.Random(2), 3, 2)
    model.write_text(serialize.dumps(serialize.mixed_lhv_to_json(mixed)))
    tree = tmp_path / "tree.json"
    tree.write_text(serialize.dumps(serialize.tree_to_json(broadcast_strategy(GhzInstance(5, 2)))))
    for argv, expected in [
        (("lhv-eval", "--n", "30", "--k", "2", "--model", str(model)),
         "536870912 valid inputs exceed the budget of 10000000; "
         "the largest n that fits at k=2 is 24"),
        (("protocol-run", "--tree", str(tree), "--evaluate", "--budget", "10"),
         "16 valid inputs exceed the budget of 10; the largest n that fits at k=2 is 4"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert_one_line_exit_two(code, out, err, "BudgetExceeded")
        assert err == f"BudgetExceeded: {expected}\n"


def test_quantum_walks_two_parity_classes_per_input():
    # 32,768 valid inputs times 2**16 outcomes: an amplitude per outcome takes minutes
    proc, elapsed = run_fresh("quantum", "--n", "16", "--k", "2")
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["passed"] is True
    assert elapsed < 10.0


@pytest.mark.parametrize(
    "n,k",
    [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (4, 4), (3, 8)],
)
def test_quantum_table_matches_the_per_row_table(capsys, n, k):
    # one amplitude per (input, parity) gives every row bit for bit
    code, out, _ = run_cli(capsys, "quantum", "--n", str(n), "--k", str(k))
    inst = GhzInstance(n=n, k=k)
    expected = [
        {
            "x": list(x),
            "a": list(a),
            "quantum": ghz.quantum_probability(inst, x, a),
            "target": serialize.fraction_to_json(ghz.target_probability(inst, x, a)),
        }
        for x in ghz.valid_inputs(inst)
        for a in itertools.product(range(2), repeat=n)
    ]
    assert code == 0 and json.loads(out)["table"] == expected


@pytest.mark.parametrize("n,k", [(30, 2), (200, 2), (60, 4)])
def test_quantum_runs_past_the_valid_input_budget(capsys, n, k):
    code, out, err = run_cli(capsys, "quantum", "--n", str(n), "--k", str(k))
    report = json.loads(out)
    assert code == 0 and err == ""
    assert report["passed"] is True and report["valid_inputs"] == k ** (n - 1)
    assert report["max_relative_deviation"] < report["tolerance"]


def test_quantum_export_keeps_the_valid_input_budget(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "quantum", "--n", "30", "--k", "2", "--export-problem", str(tmp_path / "p.json")
    )
    assert_one_line_exit_two(code, out, err, "BudgetExceeded")
    assert err == (
        "BudgetExceeded: 536870912 valid inputs exceed the budget of 10000000; "
        "the largest n that fits at k=2 is 24\n"
    )


def test_quantum_at_the_largest_n_that_fits_and_one_above(capsys):
    # past n=1024 2**n does not convert to a float, and near n=2150 the
    # per-party overlaps underflow: still a verdict, never a traceback
    code, out, err = run_cli(capsys, "quantum", "--n", "3161", "--k", "2")
    report = json.loads(out)
    assert code == 0 and err == "" and out.count("\n") == 1
    assert report["passed"] is True and report["valid_inputs"] == 2**3160
    code, out, err = run_cli(capsys, "quantum", "--n", "3162", "--k", "2")
    assert_one_line_exit_two(code, out, err, "BudgetExceeded")
    assert err.endswith("the largest n that fits at k=2 is 3161\n")


def test_quantum_prints_a_huge_valid_input_count_as_a_power(capsys, monkeypatch):
    # 2**19999 has more digits than CPython prints; the orbit pass is stubbed
    monkeypatch.setattr(ghz, "equivalence_max_deviation", lambda inst: ghz.Deviation(0.0, 0.0))
    code, out, _ = run_cli(capsys, "quantum", "--n", "20000", "--k", "2", "--budget", str(10**9))
    assert code == 0 and json.loads(out)["valid_inputs"] == "2^19999"


def test_quantum_fails_on_a_relative_error_at_n_60(capsys, monkeypatch):
    # each would pass a rule that compares probabilities absolutely: at
    # n=60 no probability exceeds 2**-59, about 1.7e-18
    exact = ghz._phase_table(4)
    monkeypatch.setattr(ghz, "_phase_table", lambda k: tuple(z * (1 + 1e-9) for z in exact))
    code, out, err = run_cli(capsys, "quantum", "--n", "60", "--k", "4")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("CrossCheckMismatch: orbit product")
    monkeypatch.undo()
    monkeypatch.setattr(ghz, "_INV_SQRT2", 0.0)  # an all-zero amplitude
    code, out, err = run_cli(capsys, "quantum", "--n", "60", "--k", "4")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("CrossCheckMismatch: amplitude 0.0 differs from the closed form 1.0")


def test_cross_check_mismatch_exits_one(capsys, monkeypatch):
    from nonlocal_lab import ghz
    from nonlocal_lab.errors import CrossCheckMismatch

    def broken(inst, cross_check_stride=257):
        raise CrossCheckMismatch("routes disagree")

    monkeypatch.setattr(ghz, "equivalence_max_deviation", broken)
    code, out, err = run_cli(capsys, "quantum", "--n", "3", "--k", "2")
    assert code == 1 and out == ""
    assert err == "CrossCheckMismatch: routes disagree\n"


def assert_bad_input(code, out, err):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(("InvalidInput:", "ArityMismatch:", "MalformedTree:"))


def test_lhv_eval_rejects_outputs_outside_the_alphabet(tmp_path, capsys):
    # l = 2, so the table entry 7 lies outside the output alphabet
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "components": [
                    {
                        "model": {"tables": [[0, 7], [0, 1], [1, 0]]},
                        "weight": {"num": "1", "den": "1"},
                    }
                ]
            }
        )
    )
    result = run_cli(capsys, "lhv-eval", "--n", "3", "--k", "2", "--model", str(path))
    assert_bad_input(*result)
    assert "output 7 outside {0..1}" in result[2]


def test_protocol_run_rejects_outputs_outside_the_alphabet(tmp_path, capsys):
    tree = {
        "n": 2,
        "k": 2,
        "root": {"leaf": {"tables": [[0, 1], [2, 0]]}},  # 2 is one past {0, 1}
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    for extra in ([], ["--evaluate"], ["--input", "0,0"]):
        result = run_cli(capsys, "protocol-run", "--tree", str(path), *extra)
        assert_bad_input(*result)
        assert "output 2 outside {0..1}" in result[2]


def test_json_booleans_are_bad_input(tmp_path, capsys):
    # bool subclasses int: tables [[true, false], ...] used to score eps 3/4
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps(
            {
                "components": [
                    {
                        "model": {"tables": [[True, False], [0, 1], [1, 0]]},
                        "weight": {"num": "1", "den": "1"},
                    }
                ]
            }
        )
    )
    result = run_cli(capsys, "lhv-eval", "--n", "3", "--k", "2", "--model", str(model))
    assert_bad_input(*result)
    assert "got True" in result[2]
    leaf = {"leaf": {"tables": [[0, 0], [0, 1]]}}
    tree = tmp_path / "tree.json"
    tree.write_text(
        json.dumps(
            {
                "n": 2,
                "k": 2,
                "root": {
                    "node": {
                        "party": True,
                        "edges": [
                            {"inputs": [False], "child": leaf},
                            {"inputs": [1], "child": leaf},
                        ],
                    }
                },
            }
        )
    )
    for extra in ([], ["--evaluate"]):
        result = run_cli(capsys, "protocol-run", "--tree", str(tree), *extra)
        assert_bad_input(*result)
        assert "party must be an int, got True" in result[2]


BAD_FILES = {
    "missing": None,
    "not JSON": "{not json",
    "not UTF-8": b"\xff\xfe",
    "KeyError": "{}",
    "TypeError": "5",
    "ragged tables": json.dumps(
        {
            "components": [
                {"model": {"tables": [[0, 1], [0]]}, "weight": {"num": "1", "den": "1"}}
            ]
        }
    ),
    "zero denominator": json.dumps(
        {
            "components": [
                {"model": {"tables": [[0, 1], [0, 1]]}, "weight": {"num": "1", "den": "0"}}
            ]
        }
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_unreadable_input_files_exit_two(tmp_path, capsys, case):
    path = tmp_path / "input.json"
    content = BAD_FILES[case]
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert_bad_input(
        *run_cli(capsys, "lhv-eval", "--n", "2", "--k", "2", "--model", str(path))
    )
    assert_bad_input(*run_cli(capsys, "protocol-run", "--tree", str(path), "--evaluate"))


def chain_tree_text(depth):
    """A valid protocol file: ``depth`` single-edge nodes above one leaf,
    written as text (``json.dumps`` has the same nesting limit as reading)."""
    text = '{"leaf": {"tables": [[0, 1], [1, 0]]}}'
    for _ in range(depth):
        text = '{"node": {"party": 0, "edges": [{"inputs": [0, 1], "child": ' + text + "}]}}"
    return '{"n": 2, "k": 2, "root": ' + text + "}"


def test_deeply_nested_files_exit_two(tmp_path, capsys):
    # 5,000 nested arrays overflow the JSON reader. 1,500 nodes overflow it
    # too (four levels a node) where its limit is the recursion limit of
    # 1,000, and the decoder's one frame a node where the reader goes deeper
    model = tmp_path / "model.json"
    model.write_text("[" * 5000 + "]" * 5000)
    result = run_cli(capsys, "lhv-eval", "--n", "2", "--k", "2", "--model", str(model))
    assert_bad_input(*result)
    assert str(model) in result[2]
    tree = tmp_path / "tree.json"
    tree.write_text(chain_tree_text(1500))
    for extra in ([], ["--evaluate"]):
        result = run_cli(capsys, "protocol-run", "--tree", str(tree), *extra)
        assert_bad_input(*result)
        assert f"{tree} nests too deeply to" in result[2]


def test_a_chain_of_250_nodes_never_exits_with_a_traceback(tmp_path, capsys):
    # past the JSON reader's nesting limit on Python 3.11 (exit 2), within
    # it where the reader goes deeper (exit 0); 200 nodes read everywhere
    tree = tmp_path / "tree.json"
    tree.write_text(chain_tree_text(250))
    code, out, err = run_cli(capsys, "protocol-run", "--tree", str(tree), "--evaluate")
    if code == 2:
        assert_bad_input(code, out, err)
    else:
        assert code == 0 and err == ""
    tree.write_text(chain_tree_text(200))
    code, out, _ = run_cli(capsys, "protocol-run", "--tree", str(tree), "--evaluate")
    assert code == 0
    assert json.loads(out)["evaluation"]["conversion_ok"] is True


def test_a_decode_past_the_recursion_limit_is_bad_input(tmp_path):
    from nonlocal_lab import cli
    from nonlocal_lab.errors import InvalidInput

    path = tmp_path / "input.json"
    path.write_text("[]")

    def unbounded(payload):
        return unbounded(payload)

    with pytest.raises(InvalidInput, match="^" + re.escape(f"{path} nests too deeply to decode: ")):
        cli._load_json(str(path), unbounded)


def test_a_negative_error_budget_is_refused_at_every_size(capsys):
    # n=3 reaches the LP, n=8 does not; both refuse before the scan
    for n in ("3", "8"):
        assert_one_line_exit_two(
            *run_cli(capsys, "tradeoff", "--n", n, "--k", "2", "--eps-grid=0,-1/2"), "Infeasible"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ("quantum", "--n", "3", "--k", "2", "--out"),
        ("search", "--n", "2", "--k", "2", "--format", "csv", "--out"),
        ("quantum", "--n", "3", "--k", "2", "--export-problem"),
    ],
    ids=["quantum-out", "search-out", "export-problem"],
)
def test_unwritable_output_paths_are_bad_input(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, *argv, str(path))
    assert_bad_input(code, out, err)
    assert err == f"InvalidInput: cannot write {path}: {os.strerror(errno.ENOENT)}\n"


def test_zero_denominator_argument_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "2", "--k", "2", "--eps-budget", "1/0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tradeoff", "--n", "2", "--k", "2", "--eps-grid", "0,1/0"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_protocol_run_rejects_a_malformed_input_vector(tmp_path, capsys):
    tree = broadcast_strategy(GhzInstance(n=3, k=2))
    path = tmp_path / "tree.json"
    path.write_text(serialize.dumps(serialize.tree_to_json(tree)))
    for vector in ("1,x,0", "1,1"):
        assert_bad_input(
            *run_cli(capsys, "protocol-run", "--tree", str(path), "--input", vector)
        )


# a table lookalike of a valid one decoded earlier in the same file; the
# interned decoders must reject it with the per-entry decoder's text
LOOKALIKE_TABLES = {
    "true": ([True, 1], "outcome entries must be ints or 'null-click', got True"),
    "float": ([1.0, 1], "outcome entries must be ints or 'null-click', got 1.0"),
    "negative": ([-1, 1], "outputs must be None or nonnegative ints"),
    "short": ([0], "party tables must share one input range"),
    "string": (["x", 1], "outcome entries must be ints or 'null-click', got 'x'"),
}


@pytest.mark.parametrize("case", sorted(LOOKALIKE_TABLES))
def test_a_lookalike_table_after_a_valid_one_exits_two(tmp_path, capsys, case):
    bad, text = LOOKALIKE_TABLES[case]
    weight = {"num": "1", "den": "3"}
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps(
            {
                "components": [
                    {"model": {"tables": tables}, "weight": weight}
                    for tables in ([[0, 1], [1, 1]], [[1, 1], [0, 1]], [[0, 1], bad])
                ]
            }
        )
    )
    leaf = {"leaf": {"tables": [[0, 1], [1, 1]]}}
    tree = tmp_path / "tree.json"
    tree.write_text(
        json.dumps(
            {
                "n": 2,
                "k": 2,
                "root": {
                    "node": {
                        "party": 0,
                        "edges": [
                            {"inputs": [0], "child": leaf},
                            {"inputs": [1], "child": {"leaf": {"tables": [[1, 1], bad]}}},
                        ],
                    }
                },
            }
        )
    )
    for argv in (
        ("lhv-eval", "--n", "2", "--k", "2", "--model", str(model)),
        ("protocol-run", "--tree", str(tree)),
        ("protocol-run", "--tree", str(tree), "--evaluate"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"InvalidInput: {text}\n")


def test_a_lookalike_weight_after_a_valid_one_exits_two(tmp_path, capsys):
    weights = ({"num": "1", "den": "2"}, {"num": True, "den": "2"})
    text = "InvalidInput: num and den must be integer strings: {'num': True, 'den': '2'}\n"
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps(
            {
                "components": [
                    {"model": {"tables": tables}, "weight": w}
                    for tables, w in zip(([[0, 1], [0, 1]], [[1, 0], [0, 1]]), weights)
                ]
            }
        )
    )
    assert run_cli(capsys, "lhv-eval", "--n", "2", "--k", "2", "--model", str(model)) == (
        2,
        "",
        text,
    )
    tree = {"n": 2, "k": 2, "root": {"leaf": {"tables": [[0, 1], [0, 1]]}}}
    protocol = tmp_path / "protocol.json"
    protocol.write_text(
        json.dumps({"components": [{"tree": tree, "weight": w} for w in weights]})
    )
    assert run_cli(capsys, "protocol-run", "--tree", str(protocol), "--evaluate") == (
        2,
        "",
        text,
    )
