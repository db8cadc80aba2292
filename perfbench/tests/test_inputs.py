"""The seeded analyze-q32 inputs: reproducible per seed, invariant across seeds."""

import pytest

import workloads


@pytest.fixture(scope="module")
def actions():
    return workloads.q32_actions()


def test_one_seed_gives_byte_identical_files(actions):
    first, _ = workloads.generator_texts(actions, workloads.input_rng(3, 0))
    again, _ = workloads.generator_texts(actions, workloads.input_rng(3, 0))
    other, _ = workloads.generator_texts(actions, workloads.input_rng(4, 0))
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def test_two_seeds_give_identical_invariants(actions, tmp_path):
    invariants = []
    for seed in (3, 4):
        item = workloads.prepare("analyze-q32", seed, 0, tmp_path)
        ops = workloads.run(item)
        assert workloads.check(item, ops) == (2, 0)
        docs = [workloads._load(op, {}) for op in ops]
        invariants.append([workloads.action_invariants(d) for d in docs])
    assert invariants[0] == invariants[1] == workloads._expected()["analyze-q32"]
