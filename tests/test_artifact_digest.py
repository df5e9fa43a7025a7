"""tools/artifact_digest.py: run-to-run equal digests that ignore only wallclock and version.

The tool is the byte-identity check between a change and its parent: both
print one SHA-256 per compared artifact and the two outputs are diffed. This
runs its pipeline twice on a tiny config and checks that the digests agree,
that editing a wallclock cell or the version line leaves a digest unchanged,
and that editing any other cell changes it.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("artifact_digest", ROOT / "tools" / "artifact_digest.py")
artifact_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digest)

CONFIG = ("num_samples = 80\nseq_len = 3\nraw_dim = 8\nclasses = 3\nshared_dim = 3\nprivate_dim = 2\n"
          "model_dim = 8\nrank = 2\npretrain_epochs = 1\nfinetune_epochs = 2\nbatch_size = 16\n"
          "probe_size = 12\nseed = 3\n")


def edited_digests(path: Path, edits):
    """Digest of `path` after each (line, cell) edit, the file restored in between."""
    original = path.read_text(encoding="utf-8")
    digests = []
    for i, j in edits:
        lines = original.splitlines()
        cells = lines[i].split(",")
        cells[j] += "9"
        lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        digests.append(artifact_digest.digest(path))
    path.write_text(original, encoding="utf-8")
    return digests


def test_two_runs_give_equal_digests(tmp_path):
    for run in ("a", "b"):
        artifact_digest.run_pipeline(CONFIG, tmp_path / run)
    a, b = (artifact_digest.digest_lines(tmp_path, run) for run in ("a", "b"))
    assert len(a) == len(artifact_digest.COMPARED) == 9
    assert [ln.replace("  a/", "  b/") for ln in a] == b
    manifests = sorted((tmp_path / "a").glob("*/manifest.json"))
    assert len(manifests) == 5
    listed = {f"{manifest.parent.name}/{name}" for manifest in manifests
              for name in json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]}
    assert listed == set(artifact_digest.COMPARED)  # every artifact the five commands write is compared

    for log in ("pretrain/epoch_log.csv", "finetune/epoch_log.csv"):
        path = tmp_path / "a" / log
        base = artifact_digest.digest(path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        wall = header.split(",").index("wallclock_ms")
        cells = [(i, j) for i in range(1, len(rows) + 1) for j in range(len(header.split(",")))]
        for (i, j), digest in zip(cells, edited_digests(path, cells)):
            assert (digest == base) == (j == wall), (log, i, j)

    for protocol in ("fixed", "random"):
        path = tmp_path / "a" / f"eval-{protocol}" / "metrics.txt"
        base = artifact_digest.digest(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = [(i, j) for i, ln in enumerate(lines) for j in range(len(ln.split(",")))]
        for (i, j), digest in zip(cells, edited_digests(path, cells)):
            assert (digest == base) == lines[i].startswith("version:"), (protocol, i, j)
