"""The detecting model replayed by online_video2n and analysed by
saliency_video2n.

Shorter training leaves p(target) flat and emits no detection, so the model
is trained once per source tree with the code under test, rather than inside
a timed run. run.py keys the trained file by a digest of src/ and of this
file. The seed is fixed: the model is part of the program under test, not of
a workload's inputs.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

MODEL_SEED = 7
MODEL_TRAIN_SESSIONS = 2
MODEL_TRAIN_EPOCHS = 30


def build_model(path: Path) -> None:
    """Pretrain on confounded video2n sessions, as A2 does, and save."""
    from eegtd import experiment
    from eegtd.model import save_model

    cfg = replace(
        experiment.confounded_stimulus_config(
            seed=MODEL_SEED, train_epochs=MODEL_TRAIN_EPOCHS
        ),
        n_train_sessions=MODEL_TRAIN_SESSIONS,
    )
    model, _ = experiment.pretrain_model(cfg)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        save_model(model, fh)
    tmp.replace(path)
