"""Whole input files, mutated: a ``lhv-eval --model`` file and a
``protocol-run --tree`` file that are valid, broken one change at a time
(a value replaced by one that fits nowhere in the schema, an entry deleted,
the text cut short or followed by junk). Every mutant is bad input: the
command exits 2 with one line on stderr, prints nothing on stdout and never
raises.

Needs the optional ``test`` extra (hypothesis); skipped without it.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nonlocal_lab import serialize  # noqa: E402
from nonlocal_lab.cli import main  # noqa: E402
from nonlocal_lab.ghz import (  # noqa: E402
    GhzInstance,
    broadcast_strategy,
    broadcast_strategy_mixed,
)
from nonlocal_lab.protocol import to_detector_model  # noqa: E402

# replayable, and few enough that the module runs in about a second
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

#: values wrong at every position of both files: no table entry, weight,
#: party, block, size or container accepts any of them (7 is outside the
#: outputs, parties and settings of an n=2, k=2 file, and a weight of 7/d
#: breaks the sum to 1)
POISONS = (None, True, False, -1, 7, 1.5, "x", [], {})

INSTANCE = GhzInstance(n=2, k=2)
MODEL = serialize.mixed_lhv_to_json(to_detector_model(broadcast_strategy_mixed(INSTANCE)))
TREE = serialize.tree_to_json(broadcast_strategy(INSTANCE))


def paths(obj, prefix=()):
    """The path of every value below the root, as a tuple of keys and indices."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


@st.composite
def mutants(draw, payload):
    text = serialize.dumps(payload)
    kind = draw(st.sampled_from(("replace", "delete", "truncate", "append", "root")))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "append":
        return text + draw(st.sampled_from(("}", "]", ",", " 1", "x")))
    if kind == "root":
        return json.dumps(draw(st.sampled_from(POISONS)))
    path = draw(st.sampled_from(list(paths(payload))))
    # a fresh copy from the text: the writers share payload objects, which
    # ``copy.deepcopy`` keeps shared, so one change would land at every
    # occurrence of a shared subtree or table
    obj = json.loads(text)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(POISONS))
    return json.dumps(obj)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_on(path, text, *argv):
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_refused(code, out, err, text):
    assert (code, out) == (2, ""), text
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    name = err.split(":", 1)[0]
    assert name.isidentifier() and name[0].isupper(), err


def test_the_unmutated_files_are_valid(workdir):
    code, out, _ = run_on(
        workdir / "model.json", serialize.dumps(MODEL), "lhv-eval", "--n", "2", "--k", "2",
        "--model", str(workdir / "model.json"),
    )
    assert code == 0 and json.loads(out)["eta_n"] == serialize.fraction_to_json(Fraction(1, 4))
    code, out, _ = run_on(
        workdir / "tree.json", serialize.dumps(TREE), "protocol-run", "--evaluate",
        "--tree", str(workdir / "tree.json"),
    )
    assert code == 0 and json.loads(out)["evaluation"]["conversion_ok"] is True


@SETTINGS
@given(text=mutants(MODEL))
def test_mutated_model_files_are_refused(workdir, text):
    path = workdir / "model.json"
    result = run_on(path, text, "lhv-eval", "--n", "2", "--k", "2", "--model", str(path))
    assert_refused(*result, text)


@SETTINGS
@given(text=mutants(TREE))
def test_mutated_tree_files_are_refused(workdir, text):
    path = workdir / "tree.json"
    result = run_on(path, text, "protocol-run", "--evaluate", "--tree", str(path))
    assert_refused(*result, text)
