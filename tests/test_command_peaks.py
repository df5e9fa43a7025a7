"""tools/command_peaks.py: one fresh process per CLI command, each with its own peaks and times.

The tool measures each command's peak resident memory, tracemalloc heap peak, wall seconds and CPU
seconds apart, which a whole run in one process cannot show. This runs it on a tiny config.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))  # command_peaks imports pipeline_argv from artifact_digest
_spec = importlib.util.spec_from_file_location("command_peaks", ROOT / "tools" / "command_peaks.py")
command_peaks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(command_peaks)

CONFIG = ("num_samples = 80\nseq_len = 3\nraw_dim = 8\nclasses = 3\nshared_dim = 3\nprivate_dim = 2\n"
          "model_dim = 8\nrank = 2\npretrain_epochs = 1\nfinetune_epochs = 1\nbatch_size = 16\n"
          "probe_size = 12\nseed = 3\n")


def test_each_command_runs_in_its_own_process_and_reports_a_peak(tmp_path):
    rows = command_peaks.command_peaks(CONFIG, tmp_path)
    assert [row[0] for row in rows] == ["gen-data", "pretrain", "finetune", "eval-fixed", "eval-random"]
    assert all(code == 0 and mb > 0 and wall > 0 and cpu > 0 for _, code, mb, _, wall, cpu in rows), rows
    # the heap peak leaves out the import baseline that every resident peak holds
    assert all(0 < heap < mb for _, _, mb, heap, _, _ in rows), rows
    assert (tmp_path / "eval-random" / "metrics.txt").is_file()  # the commands ran on each other's outputs



def test_whole_run_reports_each_command_of_three_passes_in_one_process(tmp_path):
    rows = command_peaks.whole_run_peaks(CONFIG, tmp_path)
    names = ["gen-data", "pretrain", "finetune", "eval-fixed", "eval-random"]
    assert [(index, name) for index, name, _, _ in rows] == [(i, name) for i in (1, 2, 3) for name in names]
    assert all(code == 0 and mb > 0 for _, _, code, mb in rows), rows
    peaks = [mb for _, _, _, mb in rows]
    assert peaks == sorted(peaks)  # one process: each reading is its peak so far
    assert (tmp_path / "pass3" / "eval-random" / "metrics.txt").is_file()
