"""Golden digests of every compiled IR: what the passes *decide* is pinned.

The session pins catch a compiler change only through two algorithms'
samples.  This table pins the decisions themselves: for every registered
algorithm whose pipeline exposes compiled ``samplers``, under all 8
``OptimizationConfig`` combinations, one sha256 over ``ir.pretty()`` (op,
inputs, public attrs, ``layout`` / ``+compact`` stamps) and ``pass_log``
of each distinct compiled layer, plus the nodes it segments by batch
where the pipeline super-batches.  A refactor of the pass pipeline must leave every
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
    "asgcn": "7a16c50c0fe4c5c374d4f942fced442f7266b993aa222de275c7031a3d39dc10",
    "fastgcn": "748ca03f3798a299e585b1c3f6c02ae08a2ba967cdad4a96e4107b695f22db52",
    "graphsage": "a1c3dbb9088553a3d3d24d1886dcc8e75c6edadda31f34caaa8b9652f285da62",
    "labor": "5b98cd01f927ba4b5886119a2ff6de93856445172ebf4c0fe5a61ea9dbb1d5de",
    "ladies": "533e90b209d14289b4c7f44ccda9e71335fe6f9a4c9e6de44d71338c42624837",
    "pass": "a0bd5a46b74ddc72cf9bfafe801ff0265b77909426a1917d3454e5e38bbeecf4",
    "shadow": "e7f6f183e1b381f7568f37042b5d7ebfb15c64c43d8ecd69b84afd76c224f8ed",
    "vrgcn": "4ab492095d64e37295483fee89b9bff1d02bd5ea8e818818c68a9d99cd39222c",
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
                digest.update(repr(sorted(sampler.segmented)).encode())
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
