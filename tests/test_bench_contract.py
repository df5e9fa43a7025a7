"""The benchmark under bench/ still runs against the package's API.

bench/ drives the CLI pipeline, shims the package's layer functions for
tracing and runs a per-combination finetune step probe; each of these names
package functions, methods and config fields directly. This runs all three on
a tiny config, so a rename or signature change that would break a benchmark
run fails here. The metrics documents that pipeline writes must also hold
the rows the bench checks, in its order, and the package must parse and
format each back to the same bytes.
"""

import json
from pathlib import Path

import pytest

from mculora.cli import main
from mculora.trainer import format_metrics_document, parse_metrics_document

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


def pipeline_paths(pipeline, tmp_path, settings):
    """Paths of a pipeline under `tmp_path` whose config file holds `settings`."""
    config = tmp_path / "config.txt"
    config.write_text("".join(f"{k} = {'on' if v is True else 'off' if v is False else v}\n" for k, v in settings.items()))
    return pipeline.Paths(root=tmp_path / "run", config=config)


@pytest.mark.parametrize("mcla", [True, False], ids=["mcla", "base"])
def test_traced_pipeline_and_step_probe_run(tmp_path, bench, mcla):
    pipeline, probe, tracing = bench
    settings = {**CONFIG, "mcla": mcla}
    paths = pipeline_paths(pipeline, tmp_path, settings)
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


def test_metrics_documents_hold_the_bench_rows_and_format_back_to_their_bytes(tmp_path, bench):
    pipeline, _, _ = bench
    paths = pipeline_paths(pipeline, tmp_path, CONFIG)
    outcomes = pipeline.run_pipeline(main, paths, CONFIG["num_samples"])
    assert all(outcomes[op].ok for op in pipeline.OPERATIONS)
    for op, rows in (("eval-fixed", list(pipeline.FIXED_ROWS)), ("eval-random", ["random"])):
        text = (paths.out(op) / "metrics.txt").read_text(encoding="utf-8")
        record, meta = parse_metrics_document(text)
        assert list(record.rows) == rows, op
        assert format_metrics_document(record, meta["config"], meta["version"]) == text, op
