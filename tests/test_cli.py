"""CLI tests: commands produce the expected tables and exit codes."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main


class TestListing:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "pd" in out and "fs" in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "ladies" in out and "graphsage" in out
        assert "labor" in out
        assert len(out.strip().splitlines()) == 16

    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        assert "skywalker" in capsys.readouterr().out


class TestSample:
    def test_sample_cell(self, capsys):
        code = main(
            [
                "sample",
                "--algorithm", "graphsage",
                "--dataset", "pd",
                "--scale", "0.1",
                "--max-batches", "2",
                "--batch-size", "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch time (simulated ms)" in out
        assert "SM utilization" in out

    def test_unsupported_cell_exits_nonzero(self, capsys):
        code = main(
            [
                "sample",
                "--system", "gunrock",
                "--algorithm", "ladies",
                "--dataset", "pd",
                "--scale", "0.1",
            ]
        )
        assert code == 1
        assert "does not support" in capsys.readouterr().out

    def test_bad_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["sample", "--system", "nextdoor"])


# ----------------------------------------------------------------------
# The run epilogue shared by profile / pipeline / serve
# ----------------------------------------------------------------------
_SERVE = ["serve", "--requests", "48", "--scale", "0.1"]
_PROFILE = [
    "profile", "graphsage", "--scale", "0.1", "--batch-size", "128",
    "--max-batches", "2",
]


class TestRunEpilogue:
    """Trace + one-record BENCH golden + moved keys + exit code: one
    contract for every command that writes a lane."""

    @pytest.mark.parametrize(
        ("argv", "tag"),
        [
            (_PROFILE, "gsampler_graphsage_pd_v100"),
            (["pipeline", *_PROFILE[1:]], "pipeline_graphsage_pd_v100"),
            (_SERVE, "serve_graphsage_pd_v100"),
        ],
        ids=["profile", "pipeline", "serve"],
    )
    def test_shared_contract(self, tmp_path, capsys, argv, tag):
        argv = argv + ["--out-dir", str(tmp_path)]
        bench_file = tmp_path / f"BENCH_{tag}.json"

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "new lane: no record to compare against" in out
        assert f"chrome trace: {tmp_path / f'trace_{tag}.json'}" in out
        assert json.loads((tmp_path / f"trace_{tag}.json").read_text())
        golden = bench_file.read_bytes()
        record = json.loads(golden)
        assert record.keys() == {"schema", "tag", "meta", "metrics"}
        assert record["tag"] == tag

        # The same command twice leaves the file byte-identical.
        assert main(argv + ["--fail-on-regression"]) == 0
        assert "identical to the record it replaced" in capsys.readouterr().out
        assert bench_file.read_bytes() == golden

        # One doctored metric: exactly that key is listed; exit 3 only
        # under the flag, and the run's own record replaces the doctored one.
        record["metrics"]["launches"] *= 2
        for flags, code in ((["--fail-on-regression"], 3), ([], 0)):
            bench_file.write_text(json.dumps(record))
            assert main(argv + flags) == code
            out = capsys.readouterr().out
            (listed,) = out.split("MOVED vs the record it replaced:\n")[
                1
            ].splitlines()
            assert listed.startswith("  metrics.launches: ")
            assert bench_file.read_bytes() == golden

    def test_trace_out_overrides_the_default_path(self, tmp_path, capsys):
        trace = tmp_path / "elsewhere" / "t.json"
        trace.parent.mkdir()
        argv = _SERVE + ["--out-dir", str(tmp_path), "--trace-out", str(trace)]
        assert main(argv) == 0
        assert trace.exists()
        assert not (tmp_path / "trace_serve_graphsage_pd_v100.json").exists()

    @pytest.mark.parametrize(
        ("flags", "lane"),
        [
            (["--replicas", "2", "--composer", "superbatch"],
             "cluster_superbatch"),
            (["--feature-tiers"], "tiered"),
            (["--replicas", "2", "--kill", "1@0.2"], "elastic"),
            (["--ingest-rate", "200000", "--ingest-edges", "64"], "dynamic"),
            (["--task", "linkpred"], "linkpred"),
            # Combined groups (tags recorded before ``ServeReport.lane``
            # replaced the CLI's ladder): elastic overrides tiered, the
            # task prefixes, and --autoscale's fleet of four stays
            # "elastic" although --replicas is 1.
            (["--feature-tiers", "--replicas", "2", "--kill", "1@0.2"],
             "elastic"),
            (["--task", "linkpred", "--replicas", "2", "--composer",
              "superbatch"], "linkpred_cluster_superbatch"),
            (["--ingest-rate", "200000", "--ingest-edges", "64", "--task",
              "linkpred"], "linkpred_dynamic"),
            (["--autoscale", "--composer", "superbatch"], "elastic"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_serve_flag_groups_pick_their_lane(
        self, tmp_path, capsys, flags, lane
    ):
        assert main(_SERVE + flags + ["--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        tag = f"{lane}_graphsage_pd_v100"
        bench = json.loads((tmp_path / f"BENCH_{tag}.json").read_text())
        assert bench["tag"] == tag
        assert (tmp_path / f"trace_{tag}.json").exists()
        # Every session prints the digest its record pins.
        digest = bench["metrics"]["fingerprint"]
        assert re.search(rf"^fingerprint +{digest} *$", out, re.MULTILINE)

    def test_serve_meta_records_every_session_flag(self, tmp_path):
        """``meta`` is the parsed namespace, not a hand-picked subset: a
        heterogeneous single-replica record names its size range."""
        from repro.cli import _EPILOGUE_DESTS, _build_parser

        argv = _SERVE + ["--max-seeds-per-request", "16"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        bench = tmp_path / "BENCH_serve_graphsage_pd_v100.json"
        meta = json.loads(bench.read_text())["meta"]
        assert meta["max_seeds_per_request"] == 16
        assert meta["link"] == "none" and meta["kill"] is None
        dests = set(vars(_build_parser().parse_args(argv))) - {"command"}
        assert set(meta) == dests - set(_EPILOGUE_DESTS)
        assert set(_EPILOGUE_DESTS) <= dests

    def test_min_availability_gate_exits_4(self, tmp_path, capsys):
        argv = _SERVE + [
            "--replicas", "2", "--kill", "0@0.1", "--kill", "1@0.1",
            "--out-dir", str(tmp_path),
        ]
        assert main(argv + ["--min-availability", "0.999"]) == 4
        assert "AVAILABILITY GATE FAILED" in capsys.readouterr().out
        # The record was written before the gate fired.
        assert (tmp_path / "BENCH_elastic_graphsage_pd_v100.json").exists()
        assert main(argv + ["--min-availability", "0.0"]) == 0
        assert "availability gate: " in capsys.readouterr().out

    @pytest.mark.parametrize("gate", ["2", "-1", "nan"])
    def test_min_availability_outside_0_1_exits_2(
        self, tmp_path, capsys, monkeypatch, gate
    ):
        """``2`` once ran the whole session, wrote the lane, then failed
        "100.00% < 200.00%" (exit 4); ``-1`` and ``nan`` passed silently."""
        def no_dataset(*args, **kwargs):
            raise AssertionError("refuse before any dataset is loaded")

        monkeypatch.setattr("repro.cli.load_dataset", no_dataset)
        argv = _SERVE + ["--min-availability", gate, "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "--min-availability is a fraction in [0, 1]" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("spec", ["1", "x@1", "1@soon", "1@1:later"])
    def test_malformed_kill_exits_2(self, tmp_path, capsys, spec):
        code = main(_SERVE + ["--kill", spec, "--out-dir", str(tmp_path)])
        assert code == 2
        assert "bad --kill spec" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_underflowing_skew_exits_2(self, tmp_path, capsys):
        """``rank ** -400`` leaves six non-zero probabilities for eight
        seeds: a refusal through the one ``GSamplerError`` handler, not a
        ``ValueError`` traceback out of ``numpy.random``."""
        code = main(_SERVE + ["--skew", "400", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "skew 400.0 leaves 6 of" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
