"""The benchmark under bench/ still runs against the package's API.

bench/ drives the CLI pipeline, shims the package's layer functions for
tracing and runs a per-combination finetune step probe; each of these names
package functions, methods and config fields directly. This runs all three on
a tiny config, so a rename or signature change that would break a benchmark
run fails here.
"""

import json
from pathlib import Path

import pytest

from mculora.cli import main

ROOT = Path(__file__).resolve().parent.parent

CONFIG = {"num_samples": 80, "seq_len": 3, "raw_dim": 8, "classes": 3, "shared_dim": 3, "private_dim": 2,
          "model_dim": 8, "rank": 2, "pretrain_epochs": 1, "finetune_epochs": 1, "batch_size": 16,
          "probe_size": 12, "mcla": True, "dpft": True, "seed": 3}


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import pipeline
    import probe
    import tracing
    return pipeline, probe, tracing


@pytest.mark.parametrize("mcla", [True, False], ids=["mcla", "base"])
def test_traced_pipeline_and_step_probe_run(tmp_path, bench, mcla):
    pipeline, probe, tracing = bench
    settings = {**CONFIG, "mcla": mcla}
    config = tmp_path / "config.txt"
    config.write_text("".join(f"{k} = {'on' if v is True else 'off' if v is False else v}\n" for k, v in settings.items()))
    paths = pipeline.Paths(root=tmp_path / "run", config=config)
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    try:
        outcomes = pipeline.run_pipeline(main, paths, settings["num_samples"], span=rec.span)
    finally:
        uninstall()
    assert {op: outcomes[op].error for op in pipeline.OPERATIONS} == dict.fromkeys(pipeline.OPERATIONS)
    assert all(outcomes[op].ok for op in pipeline.OPERATIONS)
    assert rec.missing == []

    values = probe.step_probe(paths.dataset, paths.checkpoint("pretrain"), settings, repeats=2, warmup=1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    step_keys = {m["name"] for m in declared if m["name"].startswith("step.")}
    assert step_keys and step_keys <= set(values)
