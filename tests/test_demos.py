"""Every demo script runs to completion against the package in ``src/``."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("check", ["advantage_bias_relation", "rectangle_tradeoff_check"])
def test_rectangle_demo_exits_nonzero_when_a_check_fails(monkeypatch, capsys, check):
    # the verdicts are explicit checks, not asserts that python -O drops
    spec = importlib.util.spec_from_file_location(
        "rectangle_tradeoff", ROOT / "demos" / "rectangle_tradeoff.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, check, lambda *args: False)
    with pytest.raises(SystemExit) as exc:
        demo.main()
    assert exc.value.code not in (0, None)
    assert str(exc.value.code).startswith("rectangle_tradeoff: ")
