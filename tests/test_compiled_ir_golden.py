"""Golden digests of every compiled IR: what the passes *decide* is pinned.

The session pins catch a compiler change only through two algorithms'
samples.  This table pins the decisions themselves: for every registered
algorithm whose pipeline exposes compiled ``samplers``, under all 8
``OptimizationConfig`` combinations, one sha256 over ``ir.pretty()`` (op,
inputs, public attrs, ``layout`` / ``+compact`` stamps) and ``pass_log``
of each distinct compiled layer, plus the super-batch rewrite where the
pipeline supports it.  A refactor of the pass pipeline must leave every
digest unchanged; a PR that means to change a decision re-pins the one
row it moved and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.algorithms import available_algorithms, make_algorithm
from repro.datasets import load_dataset
from repro.sampler import OptimizationConfig

GOLDEN = {
    "asgcn": "e6060ebbce03f9da06c8086c356ff462b25ed4123c8fe16a47b69f88a18f98d5",
    "fastgcn": "b57401e42a4e250420f84aace93021d9c4dd33105757d2868aa96f17ec06a481",
    "graphsage": "4363a7efe2e86d5b0b9663a072e4e611a29cd110e609ff80acf035010ce1cf1e",
    "labor": "8feb2ff6b0dc4fd4ed2ce71112ebdc39f9a09bc62cf8eeb46a702cd812f25849",
    "ladies": "917ce5dd07edc5ed42ab938c922e09c991fac849199edadbab5d42890ebf2adf",
    "pass": "a0bd5a46b74ddc72cf9bfafe801ff0265b77909426a1917d3454e5e38bbeecf4",
    "shadow": "e7f6f183e1b381f7568f37042b5d7ebfb15c64c43d8ecd69b84afd76c224f8ed",
    "vrgcn": "12acd2d9f8f181eca990ba03deca7049696e5685d68d5f63a08c346438503bd3",
}


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("pd", scale=0.05)


def _build(name, dataset, config=None):
    return make_algorithm(name).build(
        dataset.graph,
        dataset.train_ids[:32],
        features=dataset.features,
        config=config,
    )


def _digest(name, dataset) -> str:
    digest = hashlib.sha256()
    for config in OptimizationConfig.all_combinations():
        pipeline = _build(name, dataset, config)
        digest.update(config.label().encode())
        # Pipelines may repeat one compiled program per layer (PASS).
        for sampler in {id(s): s for s in pipeline.samplers}.values():
            digest.update(sampler.ir.pretty().encode())
            digest.update(repr(sampler.pass_log).encode())
            if pipeline.supports_superbatch:
                digest.update(sampler.superbatch_ir().pretty().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compiled_ir_matches_golden(name, dataset):
    assert _digest(name, dataset) == GOLDEN[name]


def test_golden_covers_every_compiled_algorithm(dataset):
    compiled = {
        name
        for name in available_algorithms()
        if getattr(_build(name, dataset), "samplers", None)
    }
    assert compiled == set(GOLDEN)
