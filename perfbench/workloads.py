"""The benchmark's three workloads: inputs, timed operation and output checks.

Each workload is driven through qtperm's public functions only. ``prepare``
builds the inputs (this is the set-up a fresh interpreter pays before the
first timed call), ``run`` is the timed operation, and ``check`` compares
the outputs with the expectations frozen in ``expected.json``.

On the sweeps one operation is one tested sum; on ``analyze-q32`` it is one
analyzed generator file. An operation fails if it raises, exits non-zero or
gives output that differs from the frozen expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("sweep-triples", "sweep-q32", "analyze-q32")


@dataclass
class Op:
    """One call of the program: its exit status and its JSON text."""

    status: int | None
    text: str
    error: str | None = None


@dataclass
class Prepared:
    name: str
    files: list[Path] = field(default_factory=list)
    generators: list[list[tuple[int, ...]]] = field(default_factory=list)


def sweep_q32_config():
    from qtperm.verifier import SweepConfig
    return SweepConfig(families=("psl",), include_q32=True,
                       include_triples=True)


# -- analyze-q32 inputs ----------------------------------------------------

def q32_actions():
    """PSL2(32) and PGammaL2(32) on the 496 cosets, built by qtperm."""
    from qtperm import constructions
    return [constructions.psl2_cosets(5), constructions.pgammal2_cosets(5)]


def relabelled_generators(action, rng: random.Random) -> list[tuple[int, ...]]:
    """The action's generators under a random point relabelling, shuffled."""
    n = action.degree
    sigma = list(range(n))
    rng.shuffle(sigma)
    gens = []
    for g in action.group.generators:
        images = [0] * n
        for x, y in enumerate(g.images):
            images[sigma[x]] = sigma[y]
        gens.append(tuple(images))
    rng.shuffle(gens)
    return gens


def input_rng(seed: int, index: int) -> random.Random:
    """Random source of the labelling of one sample's input files."""
    return random.Random(f"analyze-q32/{seed}/{index}")


def generator_texts(actions, rng: random.Random) -> tuple[list[str], list]:
    """Generator-file texts for each action, relabelled by ``rng``."""
    from qtperm.genfile import GeneratorFile, format_generators
    from qtperm.perm import Permutation
    texts, gens_per_file = [], []
    for action in actions:
        gens = relabelled_generators(action, rng)
        gfile = GeneratorFile(action.degree,
                              tuple(Permutation(g) for g in gens),
                              action.label)
        texts.append(format_generators(gfile))
        gens_per_file.append(gens)
    return texts, gens_per_file


# -- set-up, timed operation, checks ---------------------------------------

def prepare(name: str, seed: int, index: int, workdir: Path) -> Prepared:
    """Build the inputs of one timed operation; the sweeps need none.

    ``index`` numbers the samples of one run, so that each sample of
    ``analyze-q32`` analyzes its own labelling drawn from ``seed``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    import qtperm  # noqa: F401  the import is part of every set-up
    if name != "analyze-q32":
        return Prepared(name)
    texts, gens = generator_texts(q32_actions(), input_rng(seed, index))
    item = Prepared(name, generators=gens)
    for k, text in enumerate(texts):
        path = workdir / f"q32-{index}-{k}.gen"
        path.write_text(text, encoding="utf-8")
        item.files.append(path)
    return item


def _cli(argv) -> Op:
    from qtperm import cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        return Op(None, buf.getvalue(), f"{type(exc).__name__}: {exc}")
    return Op(status, buf.getvalue())


def run(item: Prepared) -> list[Op]:
    """The timed operation."""
    if item.name == "sweep-triples":
        return [_cli(["verify", "--triples"])]
    if item.name == "sweep-q32":
        from qtperm import report, verifier
        try:
            doc = report.sweep_document(verifier.sweep(sweep_q32_config()))
        except Exception as exc:
            return [Op(None, "", f"{type(exc).__name__}: {exc}")]
        return [Op(0, json.dumps(doc, indent=2))]
    return [_cli(["analyze", str(path)]) for path in item.files]


def _expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def _load(op: Op, schema) -> dict | None:
    import jsonschema
    if op.error is not None or op.status != 0:
        return None
    try:
        doc = json.loads(op.text)
        jsonschema.validate(doc, schema)
    except (ValueError, jsonschema.ValidationError):
        return None
    return doc


def check_sweep(name: str, ops: list[Op]) -> tuple[int, int]:
    """(attempted, failed): one operation per expected tested sum."""
    from qtperm.report import SWEEP_SCHEMA
    want = _expected()[name]
    attempted = want["tested"]
    doc = _load(ops[0], SWEEP_SCHEMA)
    if doc is None or (doc["tested"], doc["skipped"], len(doc["findings"])) \
            != (want["tested"], want["skipped"], want["findings"]):
        return attempted, attempted
    # labels repeat (two dihedral coset actions of one index), so compare
    # as multisets: an expected item fails unless the output has it too
    got = Counter((it["label"], it["status"], it["t"]) for it in doc["items"])
    missing = Counter(tuple(it) for it in want["items"]) - got
    return attempted, sum(missing.values())


def action_invariants(doc: dict) -> dict:
    """What an action report says that no relabelling of points can change."""
    return {
        "degree": doc["degree"],
        "order": doc["order"],
        "orbits": [
            {key: orbit[key] for key in (
                "size", "subdegrees", "faithful", "transitive",
                "two_transitive", "three_halves", "frobenius", "primitive")}
            for orbit in doc["orbits"]
        ],
        "pair_classes": sorted(
            [c["size"], c["stabilizer_order"], c["abelian"]]
            for c in doc["pair_classes"]),
        "verdict": [doc["verdict"]["status"], doc["verdict"]["t"]],
    }


def sympy_order(gens: list[tuple[int, ...]]) -> int:
    from sympy.combinatorics import Permutation, PermutationGroup
    return int(PermutationGroup([Permutation(list(g)) for g in gens]).order())


def check_analyze(item: Prepared, ops: list[Op]) -> tuple[int, int]:
    """(attempted, failed): one operation per analyzed file."""
    from qtperm.report import ACTION_REPORT_SCHEMA
    failed = 0
    for op, gens, want in zip(ops, item.generators, _expected()["analyze-q32"]):
        doc = _load(op, ACTION_REPORT_SCHEMA)
        if doc is None or action_invariants(doc) != want \
                or sympy_order(gens) != doc["order"]:
            failed += 1
    return len(item.files), failed


def check(item: Prepared, ops: list[Op]) -> tuple[int, int]:
    if item.name == "analyze-q32":
        return check_analyze(item, ops)
    return check_sweep(item.name, ops)
