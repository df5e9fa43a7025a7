"""tools/bench_pairs.py: alternating runs of two checkouts' benchmark, and their summary per end-to-end metric.

The tool runs each checkout's ``bench/run.py`` through that checkout's ``bench/spread.py``. Here the
checkouts are stand-ins with this repository's ``bench/spread.py`` and a ``bench/run.py`` that prints canned
result lines; the summary reads the metrics that this
repository's BENCHMARK.json declares.
"""

import importlib.util
import json
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# run.py of a stand-in checkout: the setup time is the checkout's base plus seed / 100, except that the
# change is slow at seed 3; the peak is 50 MB for the parent, 49.5 MB for the change
FAKE_RUN = textwrap.dedent("""\
    import json, sys
    from pathlib import Path
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    here = Path(__file__).resolve().parent.parent
    seed = int(args["--seed"])
    with open(here.parent / "calls.txt", "a") as calls:
        calls.write(f"{here.name} {args['--workload']} {seed} {args['--seconds']} {args['--trace']}\\n")
    setup = 2.0 if (here.name, seed) == ("change", 3) else {"parent": 1.0, "change": 0.9}[here.name] + seed / 100
    rss = {"parent": 50.0, "change": 49.5}[here.name]
    print("human-readable lines first")
    print(json.dumps({"correct": True, "attempted": 5, "failed": int(here.name == "parent" and seed == 2),
                      "metrics": {"setup_s": {"value": setup, "unit": "s"},
                                  "peak_rss_mb": {"value": rss, "unit": "MB"}}}))
""")


def result(setup_s, peak_rss_mb, failed=0):
    """A run's JSON result line, parsed, as the tool reads it."""
    return {"correct": True, "attempted": 5, "failed": failed,
            "metrics": {"setup_s": {"value": setup_s, "unit": "s"}, "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}


def test_summary_gives_medians_parent_quartiles_and_wins_per_declared_metric():
    pairs = [(result(1.0, 50.0), result(0.9, 49.0)), (result(1.2, 50.0), result(1.3, 49.0)),
             (result(1.1, 50.0, failed=1), result(1.0, 51.0)), (result(1.4, 50.0), result(1.0, 49.0))]
    assert bench_pairs.summary(DECLARED["end_to_end"], pairs) == [
        "setup_s      parent 1.15  change 1  worse by -0.1304 (bound 0.25)  parent q1-q3 1.025-1.35  "
        "change better in 3/4",
        "peak_rss_mb  parent 50  change 49  worse by -0.0200 (bound 0.1)  parent q1-q3 50-50  change better in 3/4",
        "failed parent 1/20  change 0/20"]


def test_pairs_alternate_which_side_runs_first_and_vary_the_seed(tmp_path, capsys, monkeypatch):
    # the load average reads as the number of runs made so far, so each run's line shows the one read before it
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: (len(calls()) + 0.5, 0.0, 0.0))
    monkeypatch.setattr(bench_pairs.os, "sched_getaffinity", lambda pid: {3, 1})

    def calls():
        path = tmp_path / "calls.txt"
        return path.read_text().splitlines() if path.exists() else []
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
        (tmp_path / side / "bench" / "spread.py").write_bytes((ROOT / "bench" / "spread.py").read_bytes())
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({**DECLARED, "run_seconds": 7}), encoding="utf-8")
    bench = sorted(p.relative_to(ROOT) for p in (ROOT / "bench").rglob("*"))
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "eval-long",
                             "--pairs", "4"]) == 0
    first = ["parent", "change"] * 2  # odd pairs run the parent first, even pairs the change
    assert calls() == [
        f"{side} eval-long {seed} 7 0" for seed, lead in zip(range(1, 5), first)
        for side in (lead, "change" if lead == "parent" else "parent")]
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["parent seed 1   load 0.50  failed 0/5  setup_s 1.01  peak_rss_mb 50",
                       "change seed 1   load 1.50  failed 0/5  setup_s 0.91  peak_rss_mb 49.5",
                       "change seed 2   load 2.50  failed 0/5  setup_s 0.92  peak_rss_mb 49.5"]
    assert out[8:] == [
        "eval-long: 4 pairs on CPUs 1,3",
        "setup_s      parent 1.025  change 0.93  worse by -0.0927 (bound 0.25)  parent q1-q3 1.0125-1.0375  "
        "change better in 3/4",
        "peak_rss_mb  parent 50  change 49.5  worse by -0.0100 (bound 0.1)  parent q1-q3 50-50  change better in 4/4",
        "failed parent 1/20  change 0/20"]
    assert sorted(p.relative_to(ROOT) for p in (ROOT / "bench").rglob("*")) == bench  # nothing written in bench/
