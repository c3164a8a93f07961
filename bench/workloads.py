"""The benchmark's four workloads.

Each workload is a fixed mix of CLI request classes, issued in rounds: one
round holds every class of the mix (some twice), in an order the seed
shuffles. The seed also picks each request's own seed, grid or input file,
never the mix. Counts per round are chosen so that the median falls inside
one class and the tail sample (the eleventh-slowest) inside one of the
slowest classes for any plausible number of rounds, which keeps both figures
steady from run to run.

Why each workload:

* ``cyclic-sums``: ``addition`` requests spend their time in the cyclic
  convolution (``cyclic.multiset_sum``/``iterated_sum``); at T=4 the subsets
  repeat heavily and at T=16 they barely repeat, so a grouped-factor kernel
  shows both its best and its worst case.
* ``rect-caps``: default-mode ``rect-scan`` and ``tradeoff --k 2`` spend
  their time in the canonical rectangle scan (``residue_counts`` and
  ``Rectangle`` construction); the k=2, n=5 scan adds the
  ``advantage_bias_relation`` cross-check, which rebuilds ``ghz_problem``
  once per rectangle.
* ``lp-optimum``: ``search`` and ``tradeoff --n 3 --k 2`` spend over 90% of
  their time in exact simplex pivots over 729 mostly duplicate columns.
* ``protocol-eval``: ``protocol-run --evaluate`` and ``lhv-eval`` on
  broadcast trees, shared-randomness broadcast mixtures, their converted
  detector models and seeded random protocols spend their time in
  ``mixed_lhv_metrics`` and ``protocol.execute``; a minority of ``quantum``
  requests exercises the GHZ amplitude check.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles

DELTA_POOL = tuple(
    Fraction(v) for v in ("1/2", "9/16", "5/8", "2/3", "3/4", "13/16", "7/8", "15/16")
)
EPS_POOL = tuple(Fraction(v) for v in ("0", "1/16", "1/10", "1/8", "1/6", "1/5", "1/4", "1/3"))

#: the CLI's default enumeration budget; the benchmark never overrides it
CLI_BUDGET = 10**7


@dataclass
class Request:
    """One CLI invocation and the oracle that knows its expected report."""

    cls: str
    argv: list[str]
    expect: Callable[[], dict]
    input_bytes: int = 0


@dataclass
class Workload:
    name: str
    why: str
    #: layers that do most of this workload's work; a traced run that sees
    #: no call into one of them is not measuring what it claims to
    main_layers: tuple[str, ...]
    setup: Callable[[object, Path, random.Random], dict]
    round: Callable[[object, dict, random.Random], list[Request]]


def _grid(pool, rng: random.Random, size: int = 3) -> list[Fraction]:
    return sorted(rng.sample(pool, size))


def _text(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------- cyclic-sums

ADDITION_MIX = ((4, 6400), (4, 6400), (8, 4096), (16, 4096), (16, 4096))


def _addition_oracle(lab, t: int, r: int, seed: int) -> dict:
    rng = random.Random(seed)
    general = lab.cyclic.random_subsets(t, r, rng, min_size=2)
    pairs = lab.cyclic.random_subsets(t, r, rng, min_size=2, max_size=2)
    return oracles.addition_expected(t, general, pairs)


def _cyclic_round(lab, ctx: dict, rng: random.Random) -> list[Request]:
    out = []
    for t, r in ADDITION_MIX:
        seed = rng.randrange(2**31)
        out.append(
            Request(
                cls=f"addition T={t} r={r}",
                argv=["addition", "--t", str(t), "--r", str(r), "--seed", str(seed)],
                expect=functools.partial(_addition_oracle, lab, t, r, seed),
            )
        )
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- rect-caps

RECT_SCAN_MIX = ((64, 2), (5, 4), (5, 2))
RECT_TRADEOFF_MIX = (32, 64)
TRADEOFF_EPS = (Fraction(0), Fraction(1, 10), Fraction(1, 4))  # the CLI's default grid


def _rect_round(lab, ctx: dict, rng: random.Random) -> list[Request]:
    out = []
    for n, k in RECT_SCAN_MIX:
        deltas = _grid(DELTA_POOL, rng)
        out.append(
            Request(
                cls=f"rect-scan n={n} k={k}",
                argv=["rect-scan", "--n", str(n), "--k", str(k), "--delta-grid", _text(deltas)],
                expect=functools.partial(oracles.rect_scan_expected, n, k, deltas, CLI_BUDGET),
            )
        )
    for n in RECT_TRADEOFF_MIX:
        deltas = _grid(DELTA_POOL, rng)
        out.append(
            Request(
                cls=f"tradeoff n={n} k=2",
                argv=["tradeoff", "--n", str(n), "--k", "2", "--delta-grid", _text(deltas)],
                expect=functools.partial(
                    oracles.tradeoff_expected, n, 2, list(TRADEOFF_EPS), deltas
                ),
            )
        )
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- lp-optimum

SEARCH_MIX = ((3, 2), (3, 2), (2, 3))
LP_TRADEOFF_COUNT = 2


def _lp_round(lab, ctx: dict, rng: random.Random) -> list[Request]:
    out = []
    for n, k in SEARCH_MIX:
        eps = rng.choice(EPS_POOL)
        out.append(
            Request(
                cls=f"search n={n} k={k}",
                argv=["search", "--n", str(n), "--k", str(k), "--eps-budget", str(eps)],
                expect=functools.partial(oracles.search_expected, n, k, eps),
            )
        )
    for _ in range(LP_TRADEOFF_COUNT):
        eps_grid = _grid(EPS_POOL, rng)
        deltas = _grid(DELTA_POOL, rng)
        out.append(
            Request(
                cls="tradeoff n=3 k=2",
                argv=[
                    "tradeoff", "--n", "3", "--k", "2",
                    "--eps-grid", _text(eps_grid), "--delta-grid", _text(deltas),
                ],
                expect=functools.partial(oracles.tradeoff_expected, 3, 2, eps_grid, deltas),
            )
        )
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- protocol-eval

BROADCAST_SIZES = ((5, 2), (6, 2), (4, 4), (5, 4))
MIXED_SIZES = ((5, 2), (6, 2), (4, 4))
RANDOM_SIZES = (3, 3, 4, 4)
QUANTUM_MIX = ((5, 8), (4, 4))


def _random_tree(rng: random.Random, n: int, k: int, depth: int = 0) -> dict:
    """A random broadcast tree in the CLI's JSON file format."""
    if depth >= 3 or (depth and rng.random() < 0.3):
        return {"leaf": {"tables": [[rng.randrange(2) for _ in range(k)] for _ in range(n)]}}
    values = list(range(k))
    rng.shuffle(values)
    cuts = sorted(rng.sample(range(1, k), rng.randint(1, k) - 1))
    blocks = [values[a:b] for a, b in zip([0] + cuts, cuts + [k])]
    return {
        "node": {
            "party": rng.randrange(n),
            "edges": [
                {"inputs": sorted(b), "child": _random_tree(rng, n, k, depth + 1)}
                for b in blocks
            ],
        }
    }


def _random_protocol(rng: random.Random, n: int, k: int) -> dict:
    raw = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
    return {
        "flavor": "shared",
        "components": [
            {
                "tree": {"n": n, "k": k, "root": _random_tree(rng, n, k)},
                "weight": {"num": str(w), "den": str(sum(raw))},
            }
            for w in raw
        ],
    }


@dataclass(frozen=True)
class InputFile:
    """A protocol file and the detector model converted from it."""

    cls: str
    protocol_path: Path
    model_path: Path
    n: int
    k: int
    #: broadcast cost in bits for a full-broadcast protocol (closed form
    #: eta_n = 2**-bits, eps = 0 after conversion), else None
    bits: Optional[int]


def _protocol_setup(lab, workdir: Path, rng: random.Random) -> dict:
    """Write every input file the workload reads: protocol files and the
    detector models converted from them."""
    ser, ghz, protocol = lab.serialize, lab.ghz, lab.protocol
    sources = []  # (class, protocol payload, protocol object, n, k, full broadcast)
    for n, k in BROADCAST_SIZES:
        tree = ghz.broadcast_strategy(ghz.GhzInstance(n=n, k=k))
        mixed = protocol.MixedProtocol(components=((tree, Fraction(1)),))
        sources.append((f"broadcast n={n} k={k}", ser.tree_to_json(tree), mixed, n, k, True))
    for n, k in MIXED_SIZES:
        mixed = ghz.broadcast_strategy_mixed(ghz.GhzInstance(n=n, k=k))
        sources.append((f"mixed n={n} k={k}", ser.mixed_protocol_to_json(mixed), mixed, n, k, True))
    for n in RANDOM_SIZES:
        payload = _random_protocol(rng, n, 2)
        mixed = ser.mixed_protocol_from_json(payload)
        sources.append((f"random n={n} k=2", payload, mixed, n, 2, False))
    files = []
    for idx, (cls, payload, mixed, n, k, broadcast) in enumerate(sources):
        proto_path = workdir / f"protocol{idx}.json"
        proto_path.write_text(ser.dumps(payload), encoding="utf-8")
        model_path = workdir / f"model{idx}.json"
        detector = protocol.to_detector_model(mixed)
        model_path.write_text(ser.dumps(ser.mixed_lhv_to_json(detector)), encoding="utf-8")
        bits = n * (k - 1).bit_length() if broadcast else None
        files.append(InputFile(cls, proto_path, model_path, n, k, bits))
    return {"files": files}


@functools.lru_cache(maxsize=None)
def _protocol_oracle(path: Path) -> dict:
    return oracles.protocol_expected(json.loads(path.read_text(encoding="utf-8")))


@functools.lru_cache(maxsize=None)
def _lhv_oracle(lab, f: InputFile) -> dict:
    payload = json.loads(f.model_path.read_text(encoding="utf-8"))
    return oracles.lhv_expected(lab, payload, f.n, f.k, f.bits)


def _protocol_round(lab, ctx: dict, rng: random.Random) -> list[Request]:
    files = ctx["files"]
    picks = [f for f in files if f.bits is not None]
    for n in sorted(set(RANDOM_SIZES)):
        picks.append(rng.choice([f for f in files if f.bits is None and f.n == n]))
    out = []
    for f in picks:
        out.append(
            Request(
                cls=f"protocol-run {f.cls}",
                argv=["protocol-run", "--tree", str(f.protocol_path), "--evaluate"],
                expect=functools.partial(_protocol_oracle, f.protocol_path),
                input_bytes=f.protocol_path.stat().st_size,
            )
        )
        out.append(
            Request(
                cls=f"lhv-eval {f.cls}",
                argv=["lhv-eval", "--n", str(f.n), "--k", str(f.k), "--model", str(f.model_path)],
                expect=functools.partial(_lhv_oracle, lab, f),
                input_bytes=f.model_path.stat().st_size,
            )
        )
    for n, k in QUANTUM_MIX:
        out.append(
            Request(
                cls=f"quantum n={n} k={k}",
                argv=["quantum", "--n", str(n), "--k", str(k)],
                expect=functools.partial(oracles.quantum_expected, n, k),
            )
        )
    rng.shuffle(out)
    return out


def _no_setup(lab, workdir: Path, rng: random.Random) -> dict:
    return {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cyclic-sums",
            why="addition at T=4, 8, 16: cyclic convolution with heavily and barely repeated factors",
            main_layers=("cyclic",),
            setup=_no_setup,
            round=_cyclic_round,
        ),
        Workload(
            name="rect-caps",
            why="rect-scan and tradeoff at k=2 and k=4: canonical rectangle scan plus the bias cross-check",
            main_layers=("rectangles",),
            setup=_no_setup,
            round=_rect_round,
        ),
        Workload(
            name="lp-optimum",
            why="search and tradeoff at n=3,k=2 and n=2,k=3: exact simplex over 729 mostly duplicate columns",
            main_layers=("simplex", "search"),
            setup=_no_setup,
            round=_lp_round,
        ),
        Workload(
            name="protocol-eval",
            why="protocol-run and lhv-eval on broadcast, mixed and random protocols: model metrics and tree execution",
            main_layers=("model", "protocol"),
            setup=_protocol_setup,
            round=_protocol_round,
        ),
    )
}
