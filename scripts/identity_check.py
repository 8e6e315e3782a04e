#!/usr/bin/env python3
"""Print SHA-256 sums of the outputs a behaviour-preserving change must keep.

With BLAS pinned to one thread, this
- runs the clean-stimulus (A1) recipe on 2 training sessions with an
  unpaced stream, at 3 and at 30 training epochs, and hashes its rendered
  test session (test.eegr, test.schedule.csv), model.hmdl, loss_trace.csv
  and detections.csv; for the 3-epoch run it also hashes session.esp, the
  bytes a ReplayServer sends for that test session (unpaced, 40 ms
  chunks), as a raw client reads them to EOF;
- trains the 2-session confounded (video2n) model for 30 epochs, hashes it
  and, on a held-out video2n session, hashes that session's recording, the
  evaluate_epochs result, the occlusion importances and the gradient
  saliency.

The rendered inputs are hashed so that a change to the synthetic EEG shows
at its source, not only in what is trained or detected from it. With the
recordings, the models and the session, all three binary formats (EEGR,
HMDL, ESP) are covered.

Every hashed output is kept under --out-dir. Pass --against with the
--out-dir of another tree's run to compare: each file whose sum differs is
reported with the size of the difference (detections.csv by time and class,
arrays, recordings and model parameters by their largest relative
difference), and the exit status is 1 if any output differs, 0 if none
does. The process's peak RSS so far is printed after each stage (A1 at 3
epochs, A1 at 30, video2n training, the analyses), so a memory change
shows which stage sets the peak, and once more at the end. These lines are
for information only: --against does not compare them.

Usage:
    PYTHONPATH=src python scripts/identity_check.py --out-dir ids-new \\
        [--against ids-parent]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import socket  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from eegtd.analysis import evaluate_epochs, gradient_saliency, occlusion_saliency  # noqa: E402
from eegtd.core import load_recording, load_schedule, save_recording  # noqa: E402
from eegtd.dataset import DatasetConfig, build_eval_dataset  # noqa: E402
from eegtd.experiment import (  # noqa: E402
    clean_stimulus_config,
    confounded_stimulus_config,
    generate_session,
    pretrain_model,
    run_detection_experiment,
)
from eegtd.metrics import MetricConfig  # noqa: E402
from eegtd.model import load_model, save_model  # noqa: E402
from eegtd.seeding import child_seed  # noqa: E402
from eegtd.stream import ReplayServer  # noqa: E402

SEED = 7
TRAIN_SESSIONS = 2
A1_EPOCHS = (3, 30)
SALIENCY_EPOCHS = 30


def run_a1(out: Path) -> list[Path]:
    files = []
    for epochs in A1_EPOCHS:
        cfg = replace(
            clean_stimulus_config(seed=SEED, train_epochs=epochs),
            n_train_sessions=TRAIN_SESSIONS, stream_speed=float("inf"),
        )
        workdir = out / f"a1-{epochs}"
        run_detection_experiment(cfg, workdir)
        files += [workdir / n for n in ("test.eegr", "test.schedule.csv", "model.hmdl",
                                        "loss_trace.csv", "detections.csv")]
        if epochs == A1_EPOCHS[0]:
            files.append(capture_session(workdir))
        print_peak_rss(f"A1 at {epochs} epochs")
    return files


def capture_session(workdir: Path) -> Path:
    """Write to workdir/session.esp the bytes a ReplayServer sends for the
    test session there, unpaced in 40 ms chunks, read to EOF."""
    server = ReplayServer(
        load_recording(workdir / "test.eegr"), load_schedule(workdir / "test.schedule.csv"),
        chunk_ms=40.0, speed=float("inf"),
    )
    chunks = []
    with server:
        thread = server.serve_in_thread()
        with socket.create_connection((server.host, server.port), timeout=60.0) as sock:
            while chunk := sock.recv(1 << 16):
                chunks.append(chunk)
        thread.join(60.0)
    path = workdir / "session.esp"
    path.write_bytes(b"".join(chunks))
    return path


def run_saliency(out: Path) -> list[Path]:
    cfg = replace(
        confounded_stimulus_config(seed=SEED, train_epochs=SALIENCY_EPOCHS),
        n_train_sessions=TRAIN_SESSIONS,
    )
    model, _ = pretrain_model(cfg)
    print_peak_rss("video2n training")
    rec, schedule = generate_session(cfg, child_seed(SEED, "test-session"))
    epochs = build_eval_dataset(rec, schedule, DatasetConfig(), seed=SEED)
    workdir = out / "saliency"
    workdir.mkdir(parents=True, exist_ok=True)
    save_recording(rec, workdir / "test.eegr")
    with open(workdir / "model.hmdl", "wb") as fh:
        save_model(model, fh)
    score, cm = evaluate_epochs(model, epochs, MetricConfig())
    (workdir / "evaluate.txt").write_text(f"{score!r}\n{cm.counts.tolist()}\n")
    occ = occlusion_saliency(model, epochs, MetricConfig())
    np.save(workdir / "occlusion.npy", np.append(occ.importance, occ.baseline_score))
    np.save(workdir / "gradient.npy", gradient_saliency(model, epochs))
    print_peak_rss("analyses")
    return [workdir / n
            for n in ("test.eegr", "model.hmdl", "evaluate.txt", "occlusion.npy",
                      "gradient.npy")]


def print_peak_rss(stage: str) -> None:
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB after {stage} (informational, not compared)",
          flush=True)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def model_params(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        model = load_model(fh)
    return np.concatenate([v.ravel() for st in (model.stage_a, model.stage_b)
                           for v in st.params.values()])


def describe_difference(new: Path, old: Path) -> str:
    loaders = {".npy": np.load, ".hmdl": model_params,
               ".eegr": lambda p: load_recording(p).samples.astype(np.float64)}
    if new.suffix in loaders:
        load = loaders[new.suffix]
        a, b = load(new), load(old)
        rel = np.abs(a - b).max() / max(np.abs(b).max(), np.finfo(float).tiny)
        return f"max relative difference {rel:.3g}"
    if new.name == "detections.csv":
        def rows(p):
            with open(p, newline="") as fh:
                return [(r["time"], r["class"], float(r["confidence"]))
                        for r in csv.DictReader(fh)]
        a, b = rows(new), rows(old)
        if [r[:2] for r in a] != [r[:2] for r in b]:
            return "times or classes DIFFER"
        gaps = [abs(x[2] - y[2]) for x, y in zip(a, b) if x[2] != y[2]]
        return (f"times and classes identical; {len(gaps)} of {len(a)} "
                f"confidences differ, by at most {max(gaps, default=0.0):.3g}")
    return "contents differ"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--against", type=Path,
                        help="--out-dir of an earlier run to compare with")
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)
    if args.out_dir.exists():
        shutil.rmtree(args.out_dir)
    files = run_a1(args.out_dir) + run_saliency(args.out_dir)
    differ = 0
    for path in files:
        rel = path.relative_to(args.out_dir)
        line = f"{sha256(path)}  {rel}"
        if args.against is not None:
            old = args.against / rel
            if sha256(old) != sha256(path):
                differ += 1
                line += f"  differs: {describe_difference(path, old)}"
        print(line)
    if args.against is not None:
        print(f"{differ} of {len(files)} outputs differ from {args.against}")
    print_peak_rss("all stages")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
