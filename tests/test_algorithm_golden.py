"""Golden digests of what every algorithm samples and what it is charged.

``tests/test_compiled_ir_golden.py`` pins what the compiler *decides* for
the eight algorithms with compiled ``samplers``; the session pins see two
algorithms' samples.  This table pins the rest of the algorithm layer: for
every registered algorithm one sha256 over the sampled arrays and the
launch ledger (``name, bytes_read, bytes_written, flops, tasks``) of two
batches — plus one super-batch where the pipeline supports it — at a fixed
seed on ``pd@0.05``, and for each of the eight comparison systems the
ledger (with its divergence and seconds, which is where a ``Profile``
shows) of one supported batch.  A refactor of the hop loop, the walk
driver or the system table must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import available_algorithms, make_algorithm
from repro.baselines import FIGURE7_SYSTEMS, make_system
from repro.core import GraphSample, new_rng
from repro.core.matrix import Matrix
from repro.datasets import load_dataset
from repro.device import ExecutionContext, get_device

ALGORITHM_GOLDEN = {
    "asgcn": "8e6e22f925bbe8e97d852c3a681e49370cea4e41c17c7112a22aff05f0a33e2e",
    "deepwalk": "74503e9ddba2dc6cf6c4141fcc8423ceeaa1eb28997d35f81aee2c68666f0142",
    "fastgcn": "ef8c0f7e0c1e949cfc22f150087196f5c272d31e3d867d258af943fc5814e291",
    "gcn_bs": "8ec6073dc10b934f8f8e424ec776d93ff2377b4b57e6437b491b735cbb559f8a",
    "graphsage": "d575236fc382285f37da630f2f4284a045880040b24eec5a4feed4c6a4e51f66",
    "graphsaint": "1d32f0b5ffd25d0f7d601abfccb6d4f473a531fcb75454d368e9c9d5b9b2ab37",
    "hetgnn": "319a9796dba079f0541e5d15fe148c2bbe659b69576eb641786f6e934d5d1557",
    "labor": "51c825fd9591fbae4654292aeb087c87f768f12da7a0dfd6eff6377591edf58e",
    "ladies": "7bd5fca868e6d5732c2f86cd912debfd170e266f6a082ff85d4a339643586a69",
    "node2vec": "bd504c5ae7a331460073c8fa1e647e52db27f82dc24b48ecf968941ec545b8f7",
    "pass": "d446cb8f7d75ace29394f1024ecd5304b719c263613e1b0f621b7d68594d4483",
    "pinsage": "28b54931261d7b564c5a2188b23897ed611bbb85e633e28a9c75e1d285ec90cd",
    "seal": "eb802781cebd2911834c335ede9a7c37ede580310e558a87c302e966ab410b53",
    "shadow": "52c576a1a12c0e33f7ea0cf3e71bddedaf8661bd87b328c8d575e5c72713edc6",
    "thanos": "ccbb71d5b3d3886719735bdce54157252151ac9635d867de1e816c3ae911aa7f",
    "vrgcn": "e6537f65c7768d729b2cc973988ef3454053bd300f8480e2d4fcdc643a44042f",
}

#: ShaDow's second Table-2 variant (no fan-out expansion, PPR pools).
SHADOW_PPR_GOLDEN = "f8fafb7aa1cd2d445fb041b25c5a7fe33da5bb68a5963db5e14c3057c314d155"

SYSTEM_GOLDEN = {
    "gsampler": "b5b4888a22413653df291563de92f6709094d0957d1c7442c91606f3b0941fef",
    "dgl-gpu": "95e8da833e440cdc8201d7d6dcb0e1628683cd265027b650415db8a0f980cd10",
    "dgl-cpu": "4d906a01112e4e936222d24561a08f0f7cfaa836f57ad8b1b35a278e8218dd90",
    "pyg-gpu": "c36e6e4b2b29091954b183d7c442d625178be906349330056c47f8f6bd87f0f6",
    "pyg-cpu": "c5ece1e547c86033d512d9d5a33aba45526b7395037400c03346eef7e6dfba41",
    "skywalker": "67e154e33a61cb6ae670c234cfe7c0f008681a8029d7e3ca6d5eac85064e3440",
    "gunrock": "0152c5be146f1e53746107b75ebbe8005a64189f7c8216a890e1625e4cc070d1",
    "cugraph": "bb31c202ad9fe1cec6e9ab9a6a4016a92be3f5a827f41a80bf7ff1d32a7b438c",
}

_LEDGER_FIELDS = ("name", "bytes_read", "bytes_written", "flops", "tasks")


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("pd", scale=0.05)


def _ledger(ctx, fields=_LEDGER_FIELDS) -> list[tuple]:
    return [tuple(getattr(launch, f) for f in fields) for launch in ctx.launches]


def _arrays(value) -> list:
    """Every array a sample carries, in a fixed order, as plain data."""
    if isinstance(value, np.ndarray):
        return [(str(value.dtype), value.shape, value.tolist())]
    if isinstance(value, Matrix):
        return [value.shape, *(a for part in value.to_coo_arrays() for a in _arrays(part))]
    if isinstance(value, GraphSample):
        parts = _arrays(value.seeds)
        for layer in value.layers:
            for item in (layer.matrix, layer.input_nodes, layer.output_nodes):
                parts += _arrays(item)
        return parts
    if isinstance(value, (list, tuple)):
        return [part for item in value for part in _arrays(item)]
    if hasattr(value, "__dataclass_fields__"):
        return [
            part
            for field in value.__dataclass_fields__
            for part in _arrays(getattr(value, field))
        ]
    return [value]


def _algorithm_digest(name: str, dataset, **params) -> str:
    seeds = dataset.train_ids
    batches = [seeds[:32], seeds[32:64], seeds[64:96], seeds[96:112]]
    pipeline = make_algorithm(name, **params).build(
        dataset.graph, batches[0], features=dataset.features
    )
    rng = new_rng(2023)
    record = []
    for batch in batches[:2]:
        ctx = ExecutionContext(get_device("v100"))
        sample = pipeline.sample_batch(batch, ctx=ctx, rng=rng)
        # Ledger first: reading a sample's arrays may convert layouts.
        record += [_ledger(ctx), _arrays(sample)]
        if hasattr(pipeline, "apply_rewards"):
            pipeline.apply_rewards(
                sample,
                [np.linspace(-1.0, 1.0, layer.num_edges) for layer in sample.layers],
            )
            record += _arrays(pipeline.edge_weights)
    if pipeline.supports_superbatch:
        ctx = ExecutionContext(get_device("v100"))
        samples = pipeline.sample_superbatch(batches[1:], ctx=ctx, rng=rng)
        record += [_ledger(ctx), _arrays(samples)]
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _system_digest(name: str, dataset) -> str:
    system = make_system(name)
    algorithm = (
        "graphsage" if "graphsage" in system.supported_algorithms() else "deepwalk"
    )
    seeds = dataset.train_ids[:32]
    pipeline = system.build_pipeline(algorithm, dataset, seeds)
    device = get_device("cpu" if system.device_kind == "cpu" else "v100")
    ctx = ExecutionContext(device, graph_on_device=dataset.graph_on_device)
    sample = pipeline.sample_batch(seeds, ctx=ctx, rng=new_rng(7))
    ledger = _ledger(ctx, (*_LEDGER_FIELDS, "divergence", "uva_bytes", "seconds"))
    record = [system.name, algorithm, pipeline.supports_superbatch, ledger]
    return hashlib.sha256(repr(record + _arrays(sample)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(ALGORITHM_GOLDEN))
def test_algorithm_matches_golden(name, dataset):
    assert _algorithm_digest(name, dataset) == ALGORITHM_GOLDEN[name]


def test_shadow_ppr_matches_golden(dataset):
    digest = _algorithm_digest("shadow", dataset, bias="ppr", ppr_k=6)
    assert digest == SHADOW_PPR_GOLDEN


@pytest.mark.parametrize("name", sorted(SYSTEM_GOLDEN))
def test_system_matches_golden(name, dataset):
    assert _system_digest(name, dataset) == SYSTEM_GOLDEN[name]


def test_golden_covers_every_algorithm_and_system():
    assert set(ALGORITHM_GOLDEN) == set(available_algorithms())
    assert set(SYSTEM_GOLDEN) == set(FIGURE7_SYSTEMS)
