"""The cyclic garbage collector during a request: ``main`` pauses it, puts
back the caller's state on every exit route, and the pause is safe because
no request leaves a reference cycle behind."""

import gc

import pytest

from nonlocal_lab import cli, ghz, protocol, serialize
from nonlocal_lab.errors import CrossCheckMismatch
from nonlocal_lab.ghz import GhzInstance


@pytest.fixture
def collector_state():
    """Put the collector back as it was, whatever the test left it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def write_files(tmp_path, n, k):
    """A mixed broadcast protocol file and its detector model file."""
    mixed = ghz.broadcast_strategy_mixed(GhzInstance(n=n, k=k))
    tree = tmp_path / f"mixed{n}.json"
    tree.write_text(serialize.dumps(serialize.mixed_protocol_to_json(mixed)))
    model = tmp_path / f"model{n}.json"
    detector = protocol.to_detector_model(mixed)
    model.write_text(serialize.dumps(serialize.mixed_lhv_to_json(detector)))
    return str(tree), str(model)


def record_and_raise(seen, exc):
    """A stand-in for the orbit pass of ``quantum`` that notes whether the
    collector ran, then raises ``exc``."""

    def stand_in(inst, cross_check_stride=257):
        seen.append(gc.isenabled())
        raise exc

    return stand_in


ROUTES = ["exit 0", "exit 1", "budget refusal", "unreadable file", "usage error", "unexpected"]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("route", ROUTES)
def test_main_restores_the_collector_state(
    tmp_path, capsys, monkeypatch, collector_state, route, enabled
):
    seen: list = []
    argv = ["quantum", "--n", "3", "--k", "2"]
    if route == "exit 1":
        stand_in = record_and_raise(seen, CrossCheckMismatch("routes disagree"))
        monkeypatch.setattr(ghz, "equivalence_max_deviation", stand_in)
    elif route == "unexpected":
        stand_in = record_and_raise(seen, RuntimeError("not a library error"))
        monkeypatch.setattr(ghz, "equivalence_max_deviation", stand_in)
    elif route == "budget refusal":
        argv = ["quantum", "--n", "6", "--k", "8", "--budget", "10"]
    elif route == "unreadable file":
        argv = ["lhv-eval", "--n", "2", "--k", "2", "--model", str(tmp_path / "missing.json")]
    elif route == "usage error":
        argv = ["quantum", "--n", "3"]
    (gc.enable if enabled else gc.disable)()

    if route == "usage error":
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
    elif route == "unexpected":
        with pytest.raises(RuntimeError, match="not a library error"):
            cli.main(argv)
    else:
        expected = {"exit 0": 0, "exit 1": 1}.get(route, 2)
        assert cli.main(argv) == expected
    capsys.readouterr()
    assert gc.isenabled() is enabled
    # the subcommand itself ran with the collector paused
    assert seen == ([False] if route in ("exit 1", "unexpected") else [])


def test_no_request_leaves_a_reference_cycle(tmp_path, capsys, monkeypatch, collector_state):
    tree, model = write_files(tmp_path, 3, 2)
    requests = [
        (["quantum", "--n", "3", "--k", "2"], 0),
        (["quantum", "--n", "2", "--k", "2", "--format", "csv"], 0),
        (["lhv-eval", "--n", "3", "--k", "2", "--model", model], 0),
        (["lhv-eval", "--n", "3", "--k", "2", "--model", model, "--format", "csv"], 0),
        (["search", "--n", "2", "--k", "2", "--eps-budget", "1/10"], 0),
        (["rect-scan", "--n", "3", "--k", "2"], 0),
        (["rect-scan", "--n", "2", "--k", "2", "--format", "csv"], 0),
        (["addition", "--t", "4", "--r", "64", "--seed", "3"], 0),
        (["tradeoff", "--n", "3", "--k", "2"], 0),
        (["protocol-run", "--tree", tree, "--input", "1,0,1", "--evaluate"], 0),
        (["quantum", "--n", "6", "--k", "8", "--budget", "10"], 2),
        (["lhv-eval", "--n", "2", "--k", "2", "--model", str(tmp_path / "missing.json")], 2),
    ]
    cli._parser()  # built once per process; the build itself leaves garbage
    # off throughout, or the collections between requests would free a cycle
    # before the last call could count it
    gc.disable()
    gc.collect()
    for argv, expected in requests:
        assert cli.main(argv) == expected, argv
    stand_in = record_and_raise([], CrossCheckMismatch("routes disagree"))
    monkeypatch.setattr(ghz, "equivalence_max_deviation", stand_in)
    assert cli.main(["quantum", "--n", "3", "--k", "2"]) == 1
    capsys.readouterr()
    assert gc.collect() == 0


def test_no_collection_runs_inside_a_protocol_evaluation(tmp_path, capsys, collector_state):
    tree, _ = write_files(tmp_path, 6, 2)
    starts: list = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    cli._parser()
    gc.callbacks.append(count)
    try:
        gc.collect()  # also zeroes the allocation counts
        starts.clear()
        assert cli.main(["protocol-run", "--tree", tree, "--evaluate"]) == 0
        # len allocates no container: the allocation counts stay as main
        # left them (high, from the free lists), and the first container
        # allocated after it sets off one young collection
        inside_main = len(starts)
        # the counter sees collections: decoding the same file outside
        # main, with the collector on, sets off some
        gc.collect()
        starts.clear()
        cli._load_json(tree, cli._protocol_from_json)
        outside_main = len(starts)
    finally:
        gc.callbacks.remove(count)
    capsys.readouterr()
    assert inside_main == 0
    assert outside_main > 0
