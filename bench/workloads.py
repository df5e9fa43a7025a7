"""The benchmark's workloads: one generated config per (workload, seed).

Every workload shares the base shape of the paper's small model (raw_dim 16,
d = 32, batch 32, adapter rank 4) and runs the same closed-loop pipeline:
gen-data, pretrain, finetune, eval fixed, eval random, one command after
another from one process. They differ in which layer dominates the time.
"""

from __future__ import annotations

from dataclasses import dataclass

_BASE = {
    "raw_dim": 16,
    "model_dim": 32,
    "batch_size": 32,
    "rank": 4,
    "classes": 4,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: dict

    def config(self, seed: int) -> dict:
        """Every config key the program sees; the seed is the only varying input."""
        return {**_BASE, **self.settings, "seed": seed, "eval_seed": seed}

    def config_text(self, seed: int) -> str:
        lines = [f"# benchmark workload {self.name}, seed {seed}"]
        lines += [f"{key} = {_format(value)}" for key, value in self.config(seed).items()]
        return "\n".join(lines) + "\n"

    def split_sizes(self) -> tuple[int, int]:
        """(train, test) sample counts of the contiguous split the CLI makes."""
        n = self.settings["num_samples"]
        n_train = int(round(n * self.settings["train_frac"]))
        n_val = int(round(n * self.settings["val_frac"]))
        return n_train, n - n_train - n_val


def _format(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


WORKLOADS = {w.name: w for w in (
    Workload(
        "ft-mcla",
        "MCLA and DPFT on, short pretrain, long finetune: adapters, orthogonality loss, tape replay, "
        "Adam and per-epoch scoring dominate",
        {"num_samples": 2000, "seq_len": 8, "train_frac": 0.7, "val_frac": 0.15,
         "pretrain_epochs": 3, "finetune_epochs": 10, "mcla": True, "dpft": True},
    ),
    Workload(
        "ft-base",
        "w/o-MCLA ablation with a long pretrain: adapters and orthogonality loss bypassed, "
        "DPFT takes the adapter-free fallback",
        {"num_samples": 2000, "seq_len": 8, "train_frac": 0.7, "val_frac": 0.15,
         "pretrain_epochs": 12, "finetune_epochs": 10, "mcla": False, "dpft": True},
    ),
    Workload(
        "eval-long",
        "long sequences (L=32), 6000 samples and a large test split, brief training: generation, "
        "container I/O, masking and no-tape inference dominate",
        {"num_samples": 6000, "seq_len": 32, "train_frac": 0.1, "val_frac": 0.05,
         "pretrain_epochs": 2, "finetune_epochs": 2, "mcla": True, "dpft": True},
    ),
)}
