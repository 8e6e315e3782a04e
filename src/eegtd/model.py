"""Hierarchical two-stage convolutional classifier.

Stage A separates non-target vs target windows, stage B true vs error
targets; the two binary softmaxes compose into a 3-class output
(a0, a1*b0, a1*b1). Both stages share one architecture: temporal
convolution, spatial convolution collapsing the channel axis, conv/pool
blocks with ELU activations, then a dense head with two logits.

The temporal and spatial convolutions compose linearly, so they fuse into
one kernel and every conv layer, front end and blocks alike, runs one body:
convolution plus bias, max-pool, ELU, dropout. ELU is monotonic, so pooling
first gives the same values as pooling its output, on a third of the samples.
Dropout runs only in training: `backward(..., rng)` draws its masks from the
rng in forward order (stage A's front end, each block and dense hidden layer,
then stage B's), always at the whole batch's shape. A non-target row's loss,
-log a0, gives stage B no gradient, so a training step runs stage B's conv
layers on the target rows alone. Training and eval run one pass, each pool a
running maximum; eval drops the backward cache it returns.

Each conv layer is a sum over its K lags of per-row matrix products. The sum
runs one L2-sized row chunk at a time (CONV_CHUNK_BYTES of output), all K lags
per chunk, so the running sum stays in cache. The bits do not change: numpy's
stacked matmul makes one BLAS call per row, of the same shape whatever the
number of rows, and the adds are elementwise in the same lag order.

The front end is linear in the input too, so `predict_occluded` scores each
zeroed-channel copy from one front-end pass per stage and chunk, less that
channel's share: the zeroed copy's labels, unless two classes tie to the
input dtype's rounding (~1e-15 in float64, ~1e-7 in float32).

The model's API takes batches of standardized windows (B, C, T); one window
is a 1-row batch. `forward` is the eval pass, without dropout, and gives
the composed probabilities (B, 3); `cross_entropy` gives each row's loss, and
`backward` the gradients of their mean.
`cut_windows` cuts windows from a `core.Windows` set in analysis and from the
online engine's buffer. Training never stacks its set: it computes each
window's per-channel mean and std once and cuts each batch from the samples
into one reused buffer. Both cutters take each row's mean and std from
`_centre` and divide and zero flat rows in `_scale`, so a window has the same
bits in training, analysis and online. Every kernel computes in the dtype of
its input: each call casts the parameters, which stay float64 in memory and
on disk, to the windows' dtype, so float32 windows run float32 end to end and
float64 windows give float64 bits. Windows are always standardized in
float64; scoring (the online engine, window evaluation and occlusion) has
`cut_windows` store them as float32, while training, calibration and
input-gradient saliency pass float64. Gradients are hand-derived reverse
mode; `backward` is checked against central finite differences in the tests.
Training is Adam with decoupled weight decay and is bit-deterministic given
(seed, data, config).
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass, replace
from typing import BinaryIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from eegtd.core import FormatError, Windows, read_end, read_exact
from eegtd.seeding import child_seed

HMDL_MAGIC = b"HMDL"
HMDL_VERSION = 1
# NetConfig's scalar fields in HMDL header order.
HMDL_FIELDS = (
    "n_channels", "window_len", "temporal_filters", "kernel_len", "pool_len",
    "dense_hidden", "dropout_rate",
)
# version, the HMDL_FIELDS, n_blocks (after the magic); the n_blocks
# deep_filters counts follow as u32.
HMDL_HEADER = struct.Struct("<IIIIIIIdI")
LOSS_EPS = 1e-12
# Windows per forward pass in predict_batch; bounds its activation memory.
PREDICT_CHUNK = 256
# Windows cut and standardized at a time by cut_windows and by training's
# per-window stats pass; their float64 temporaries stay a small fraction of
# the (N, C, T) output or of the set's float32 samples.
STACK_CHUNK = 64
# Output bytes per row chunk of a lag-conv sum (`_lag_conv`,
# `_lag_conv_input_grad`): the chunk's running sum and its one product
# buffer stay in a 2 MiB L2 while its K lags add up. 256 KiB timed best of
# 64 to 512 KiB on a B=128 training step and a B=256 predict_batch.
CONV_CHUNK_BYTES = 256 * 1024
# Adam moment decays and denominator guard (the usual defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_loss_clamp_count = 0


def loss_clamp_count() -> int:
    """How many times a zero class probability was clamped in `cross_entropy`."""
    return _loss_clamp_count


@dataclass(frozen=True)
class NetConfig:
    n_channels: int = 32
    window_len: int = 250
    temporal_filters: int = 8
    deep_filters: tuple[int, ...] = (8, 16)
    kernel_len: int = 10
    pool_len: int = 3
    dropout_rate: float = 0.1
    dense_hidden: int = 32

    def __post_init__(self) -> None:
        object.__setattr__(self, "deep_filters", tuple(self.deep_filters))
        if min(self.n_channels, self.window_len, self.temporal_filters,
               self.kernel_len, self.pool_len, self.dense_hidden) < 1:
            raise ValueError("all size fields must be >= 1")
        if not self.deep_filters or min(self.deep_filters) < 1:
            raise ValueError("deep_filters must be a non-empty tuple of counts")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        self.time_steps()  # raises if any stage collapses below 1 sample

    def time_steps(self) -> list[int]:
        """Temporal length after the front end and after each block."""
        steps = []
        t = self.window_len - self.kernel_len + 1
        if t < 1:
            raise ValueError("window shorter than temporal kernel")
        t //= self.pool_len
        if t < 1:
            raise ValueError("front-end pooling collapses the window")
        steps.append(t)
        for i in range(len(self.deep_filters)):
            t = t - self.kernel_len + 1
            if t < 1:
                raise ValueError(f"block {i} convolution collapses the window")
            t //= self.pool_len
            if t < 1:
                raise ValueError(f"block {i} pooling collapses the window")
            steps.append(t)
        return steps

    def feature_len(self) -> int:
        return self.deep_filters[-1] * self.time_steps()[-1]


def param_shapes(cfg: NetConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list of one stage's parameters."""
    f = cfg.temporal_filters
    shapes = [
        ("w_time", (f, cfg.kernel_len)),
        ("w_spat", (f, f, cfg.n_channels)),
        ("b_spat", (f,)),
    ]
    prev = f
    for i, g in enumerate(cfg.deep_filters):
        shapes.append((f"w_conv{i}", (g, prev, cfg.kernel_len)))
        shapes.append((f"b_conv{i}", (g,)))
        prev = g
    shapes += [
        ("w_dense", (cfg.feature_len(), cfg.dense_hidden)),
        ("b_dense", (cfg.dense_hidden,)),
        ("w_out", (cfg.dense_hidden, 2)),
        ("b_out", (2,)),
    ]
    return shapes


@dataclass
class StageNet:
    """One binary stage: an ordered dict of named float64 parameter arrays."""

    params: dict[str, np.ndarray]

    @classmethod
    def init(cls, cfg: NetConfig, rng: np.random.Generator) -> "StageNet":
        # Half-scale fan-in uniform. Measured against the full bound
        # sqrt(1/fan_in): the clean-stimulus experiment (seed 7) scores event
        # macro F_beta 0.337 here against 0.328 at full scale, so no held-out
        # gain; but the confounded model's occlusion contrast does depend on
        # it (occipital 0.047 > frontal 0.040 here, 0.007 < 0.029 at full
        # scale). Small nets start slower: the 40-epoch toy fit in the
        # analysis tests is still mid-descent at loss 0.66.
        params: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(cfg):
            if name.startswith("b_"):
                params[name] = np.zeros(shape)
            else:
                # Dense matrices are stored (in, out), kernels (out, in, ...).
                dense = name in ("w_dense", "w_out")
                fan_in = shape[0] if dense else math.prod(shape[1:])
                s = 0.5 * np.sqrt(1.0 / fan_in)
                params[name] = rng.uniform(-s, s, size=shape)
        return cls(params)


@dataclass
class HierarchicalModel:
    stage_a: StageNet
    stage_b: StageNet
    config: NetConfig


def init_model(cfg: NetConfig, seed: int) -> HierarchicalModel:
    rng = np.random.default_rng(seed)
    return HierarchicalModel(StageNet.init(cfg, rng), StageNet.init(cfg, rng), cfg)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    learning_rate: float = 0.001
    weight_decay: float = 0.0001
    epochs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not (0 <= self.learning_rate < math.inf and 0 <= self.weight_decay < math.inf):
            raise ValueError(f"learning rate ({self.learning_rate}) and weight decay "
                             f"({self.weight_decay}) must be finite and >= 0")


def _centre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre float64 rows (last axis) in place; return their means and
    population stds."""
    mu = x.mean(axis=-1, keepdims=True)
    x -= mu
    # np.std's own steps on the rows already centred: the same bits.
    return mu, np.sqrt(np.square(x).mean(axis=-1, keepdims=True))


def _scale(x: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Divide centred rows by their std in place; near-constant rows map to 0."""
    flat = sd < 1e-9
    x /= np.where(flat, 1.0, sd)
    if flat.any():  # a masked copy costs a pass over x; most batches have no flat row
        np.copyto(x, 0.0, where=flat)
    return x


def standardize(epoch_data: np.ndarray) -> np.ndarray:
    """Zero-mean unit-std rows along the last axis (population std), for one
    window (C, T) or a stack (N, C, T); near-constant rows map to 0."""
    x = np.array(epoch_data, dtype=np.float64)
    return _scale(x, _centre(x)[1])


def _centred_chunks(samples: np.ndarray, window_len: int, starts: np.ndarray):
    """Yield (rows, x, mu, sd) per STACK_CHUNK windows of samples (C, S):
    x is windows starts[rows] in float64, centred, with their means and stds."""
    if len(starts) == 0:
        raise ValueError("empty window set: training and evaluation need a non-empty one")
    # The gather copies each window out C-ordered, as a slice would be, and
    # rows standardize independently: chunks give one whole stack's bits.
    view = sliding_window_view(samples, window_len, axis=1).transpose(1, 0, 2)
    for lo in range(0, len(starts), STACK_CHUNK):
        x = view[starts[lo : lo + STACK_CHUNK]].astype(np.float64)
        yield slice(lo, lo + len(x)), x, *_centre(x)


def cut_windows(
    samples: np.ndarray, window_len: int, starts: np.ndarray, dtype=np.float64
) -> np.ndarray:
    """Standardized windows (N, C, window_len) of samples (C, S), computed in
    float64 and stored as `dtype`: row i is samples[:, starts[i] : starts[i] +
    window_len]. A float32 result rounds as `.astype(np.float32)` would."""
    x = np.empty((len(starts), samples.shape[0], window_len), dtype)
    for rows, chunk, _, sd in _centred_chunks(samples, window_len, starts):
        x[rows] = _scale(chunk, sd)
    return x


def _window_stats(windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """Each window's per-channel float64 mean and std, (N, C, 1) each."""
    shape = (len(windows), windows.samples.shape[0], 1)
    mu, sd = np.empty(shape), np.empty(shape)
    for rows, _, m, s in _centred_chunks(windows.samples, windows.window_len, windows.starts):
        mu[rows], sd[rows] = m, s
    return mu, sd


def _cut_batch(
    windows: Windows, idx: np.ndarray, mu: np.ndarray, sd: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Windows idx standardized into out[:len(idx)] from their `_window_stats`:
    `cut_windows(windows.samples, windows.window_len, windows.starts[idx])`'s
    bits, without a float64 copy of the set."""
    x, w = out[: len(idx)], windows.window_len
    # Widen each window to float64, then centre: standardize's steps. A copy
    # per row and one subtract beat a casting subtract per row.
    for row, s in zip(x, windows.starts[idx]):
        row[...] = windows.samples[:, s : s + w]
    x -= mu[idx]
    return _scale(x, sd[idx])


def _elu(z: np.ndarray) -> np.ndarray:
    # expm1(z) >= z, so the max is expm1(z) for z <= 0 and z for z > 0.
    # With z first, z = -0.0 keeps the zero sign np.minimum gave it.
    out = np.minimum(z, 0.0)
    np.expm1(out, out=out)
    return np.maximum(z, out, out=out)


def _elu_grad(z: np.ndarray) -> np.ndarray:
    # exp(0) is exactly 1, the slope for z > 0.
    out = np.minimum(z, 0.0)
    return np.exp(out, out=out)


def _maxpool(a: np.ndarray, p: int) -> np.ndarray:
    """Non-overlapping max pool along the last axis: a running maximum over the
    p strided views; remainder samples drop. np.maximum returns its second
    operand on a tie (-0.0 vs 0.0), so a tie keeps the earlier sample."""
    n = a.shape[-1] // p
    out = a[..., : n * p : p].copy()
    for j in range(1, p):
        np.maximum(a[..., j : n * p : p], out, out=out)
    return out


def _maxpool_backward(dout: np.ndarray, z: np.ndarray, zp: np.ndarray, p: int) -> np.ndarray:
    """Gradient w.r.t. z of zp = _maxpool(z, p): each dout goes to its pool's
    first maximum, as argmax picks ties; dropped remainder samples get 0."""
    n = zp.shape[-1]
    grad = np.zeros(z.shape, dout.dtype)
    free = np.ones(zp.shape, bool)  # pools whose maximum is not yet taken
    for j in range(p):
        hit = (z[..., j : n * p : p] == zp) & free
        np.copyto(grad[..., j : n * p : p], dout, where=hit)
        free &= ~hit
    return grad


def _softmax2(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def compose_probs(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """(B, 3) rows (a0, a1*b0, a1*b1) from the two (B, 2) binary softmax
    outputs."""
    return np.stack([pa[:, 0], pa[:, 1] * pb[:, 0], pa[:, 1] * pb[:, 1]], axis=1)


def _dropout_mask(
    cfg: NetConfig, shape: tuple[int, ...], dtype: np.dtype, rng: np.random.Generator | None
) -> np.ndarray | None:
    """Inverted-dropout mask in the activations' dtype, drawn from rng; None
    (and no draw) in eval mode or when dropout is off."""
    rate = cfg.dropout_rate
    if rng is None or rate == 0.0:
        return None
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


def _chunk_rows(out: np.ndarray) -> int:
    """Rows of a lag sum's output `out` per chunk: CONV_CHUNK_BYTES, at
    least one."""
    return max(1, CONV_CHUNK_BYTES // (out.itemsize * math.prod(out.shape[1:])))


def _lag_conv(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of x (B, C, T) with w (G, C, K), as the sum of
    lag-shifted matmuls w[:, :, k] @ x[..., k:k+T1]; returns (B, G, T1).
    The sum runs one row chunk at a time, all K lags per chunk, through one
    reused product buffer: the bits of a whole-batch sum, kept in cache."""
    k = w.shape[-1]
    t1 = x.shape[-1] - k + 1
    out = np.empty((x.shape[0], w.shape[0], t1), np.result_type(w, x))
    step = _chunk_rows(out)
    buf = np.empty((min(step, len(x)), *out.shape[1:]), out.dtype)
    for lo in range(0, len(x), step):
        xc, oc = x[lo : lo + step], out[lo : lo + step]
        prod = buf[: len(xc)]
        np.matmul(w[:, :, 0], xc[..., :t1], out=oc)
        for kk in range(1, k):
            oc += np.matmul(w[:, :, kk], xc[..., kk : kk + t1], out=prod)
    return out


def _lag_conv_weight_grad(dz: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of `_lag_conv`'s w (G, C, K) given dz (B, G, T1): per lag,
    the sum over the batch of dz @ x[..., k:k+T1].T, as one batched matmul."""
    xw = sliding_window_view(x, dz.shape[-1], axis=2)  # (B, C, K, T1) view
    return np.matmul(dz[:, None], xw.transpose(0, 2, 3, 1)).sum(0).transpose(1, 2, 0)


def _lag_conv_input_grad(w: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Gradient of `_lag_conv`'s x (B, C, T1+K-1) given dz (B, G, T1): the
    transposed convolution, w[:, :, k].T @ dz added at offset k, one row
    chunk at a time like `_lag_conv`."""
    k = w.shape[-1]
    t1 = dz.shape[-1]
    dx = np.zeros((dz.shape[0], w.shape[1], t1 + k - 1), np.result_type(w, dz))
    step = _chunk_rows(dx)
    buf = np.empty((min(step, len(dz)), w.shape[1], t1), dx.dtype)
    for lo in range(0, len(dz), step):
        dzc, dxc = dz[lo : lo + step], dx[lo : lo + step]
        prod = buf[: len(dzc)]
        for kk in range(k):
            dxc[:, :, kk : kk + t1] += np.matmul(w[:, :, kk].T, dzc, out=prod)
    return dx


def _rowwise_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a (B, F) @ w (F, H) as one vector-matrix product per row. A plain
    (B, F) @ w takes a different BLAS kernel at B=1 than at B >= 2, and the
    two round differently; row by row, a window's result is the same bits
    whatever batch it is computed in."""
    return np.matmul(a[:, None, :], w)[:, 0]


def _params_as(stage: StageNet, dtype: np.dtype) -> dict[str, np.ndarray]:
    """The stage's parameters in the input's dtype; float64 ones are the
    stored arrays, not copies."""
    return {name: v.astype(dtype, copy=False) for name, v in stage.params.items()}


def _conv_layers(p: dict[str, np.ndarray], cfg: NetConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """(kernel (G, C, K), bias (G,)) of each conv layer of a stage's
    parameters p: the front end, then each block."""
    # The temporal and spatial convolutions compose linearly (no activation
    # between them), so the front end is one fused kernel weff (G, C, K).
    weff = np.einsum("gfc,fk->gck", p["w_spat"], p["w_time"])
    blocks = [(p[f"w_conv{i}"], p[f"b_conv{i}"]) for i in range(len(cfg.deep_filters))]
    return [(weff, p["b_spat"])] + blocks


def _stage_forward(
    stage: StageNet,
    cfg: NetConfig,
    x: np.ndarray,
    rng: np.random.Generator | None = None,
    z0: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Logits (B, 2) and the backward cache; an rng switches dropout on.

    Each conv layer pools z, then applies ELU to the pooled third. The cache
    holds each layer's input, z, pooled z and dropout mask; eval drops it. A
    given z0 (B, G, T1) stands in for the front end's pre-activation, bias
    included. Given rows, the conv layers run on x[rows] alone, and the dense
    head on every row with zero features elsewhere: its backward products,
    which BLAS rounds by batch shape, keep the whole batch's shape, and so do
    the masks."""
    p = _params_as(stage, x.dtype)
    convs = _conv_layers(p, cfg)
    keep = slice(None) if rows is None else rows
    layers = []
    h = x[keep]
    for i, (w, b) in enumerate(convs):
        z = z0 if i == 0 and z0 is not None else _lag_conv(w, h) + b[None, :, None]
        zp = _maxpool(z, cfg.pool_len)
        a = _elu(zp)
        mask = _dropout_mask(cfg, (len(x), *a.shape[1:]), x.dtype, rng)
        if mask is not None:
            mask = mask[keep]
            a *= mask
        layers.append((h, z, zp, mask))
        h = a

    flat = np.zeros((len(x), cfg.feature_len()), x.dtype)
    flat[keep] = h.reshape(len(h), cfg.feature_len())
    d1 = _rowwise_matmul(flat, p["w_dense"]) + p["b_dense"]
    hid = _elu(d1)
    mask = _dropout_mask(cfg, hid.shape, x.dtype, rng)
    if mask is not None:
        hid = hid * mask
    logits = _rowwise_matmul(hid, p["w_out"]) + p["b_out"]
    return logits, {"params": p, "convs": convs, "layers": layers, "flat": flat,
                    "d1": d1, "hid": hid, "dense_mask": mask, "rows": keep}


def _stage_backward(
    cfg: NetConfig,
    cache: dict,
    dlogits: np.ndarray,
    need_input_grad: bool = False,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Parameter gradients plus (optionally) the gradient w.r.t. the input,
    in the forward input's dtype: the parameters are the forward's cast."""
    p = cache["params"]
    grads: dict[str, np.ndarray] = {}

    grads["w_out"] = cache["hid"].T @ dlogits
    grads["b_out"] = dlogits.sum(axis=0)
    dhid = dlogits @ p["w_out"].T
    if cache["dense_mask"] is not None:
        dhid = dhid * cache["dense_mask"]
    dd1 = dhid * _elu_grad(cache["d1"])
    grads["w_dense"] = cache["flat"].T @ dd1
    grads["b_dense"] = dd1.sum(axis=0)
    layers = cache["layers"]
    # The last layer's pooled z has its output's shape.
    dh = (dd1 @ p["w_dense"].T)[cache["rows"]].reshape(layers[-1][2].shape)

    for i in reversed(range(len(layers))):
        h_in, z, zp, mask = layers[i]
        if mask is not None:
            dh = dh * mask
        dz = _maxpool_backward(dh * _elu_grad(zp), z, zp, cfg.pool_len)
        dw = _lag_conv_weight_grad(dz, h_in)
        db = dz.sum(axis=(0, 2))
        if i > 0:
            grads[f"w_conv{i - 1}"], grads[f"b_conv{i - 1}"] = dw, db
        else:
            # Unfuse: weff[g,c,k] = sum_f w_spat[g,f,c] * w_time[f,k].
            grads["b_spat"] = db
            grads["w_time"] = np.einsum("gck,gfc->fk", dw, p["w_spat"])
            grads["w_spat"] = np.einsum("gck,fk->gfc", dw, p["w_time"])
        if i > 0 or need_input_grad:
            dh = _lag_conv_input_grad(cache["convs"][i][0], dz)
    return grads, dh if need_input_grad else None


def _check_input(cfg: NetConfig, x: np.ndarray) -> None:
    if x.ndim != 3 or x.shape[1:] != (cfg.n_channels, cfg.window_len):
        raise ValueError(f"input shape {x.shape} does not match "
                         f"(batch, {cfg.n_channels}, {cfg.window_len})")
    if x.dtype not in (np.float32, np.float64):
        raise ValueError(f"input dtype {x.dtype} is not float32 or float64")


def forward(model: HierarchicalModel, x: np.ndarray) -> np.ndarray:
    """Eval-mode composed 3-class probabilities (B, 3) of standardized
    windows (B, C, T), without dropout."""
    cfg = model.config
    _check_input(cfg, x)
    la, _ = _stage_forward(model.stage_a, cfg, x)
    lb, _ = _stage_forward(model.stage_b, cfg, x)
    return compose_probs(_softmax2(la), _softmax2(lb))


def _check_labels(labels: np.ndarray, b: int) -> None:
    if not (isinstance(labels, np.ndarray) and labels.shape == (b,)
            and np.issubdtype(labels.dtype, np.integer)
            and np.all((labels >= 0) & (labels <= 2))):
        raise ValueError(f"labels must be a 1-D integer array of {b} values in {{0, 1, 2}}")


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row -log p(label) of composed probabilities (B, 3) against integer
    labels (B,) in {0, 1, 2}; zero probabilities are clamped to LOSS_EPS and
    counted."""
    global _loss_clamp_count
    _check_labels(labels, len(probs))
    picked = probs[np.arange(len(labels)), labels]
    _loss_clamp_count += int((picked < LOSS_EPS).sum())
    return -np.log(np.maximum(picked, LOSS_EPS))


def backward(
    model: HierarchicalModel,
    x: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator | None = None,
    need_input_grad: bool = False,
) -> tuple[dict[str, dict[str, np.ndarray]], float, np.ndarray | None]:
    """Exact gradients of the mean cross-entropy of forward(x) against
    labels (B,) in {0, 1, 2}, w.r.t. every parameter.

    Returns ({"stage_a": {...}, "stage_b": {...}}, mean_loss, d_input);
    d_input is None unless requested. Pass an rng to draw dropout masks
    (training mode); omit it for the deterministic no-dropout gradients the
    finite-difference oracle checks.
    """
    cfg = model.config
    _check_input(cfg, x)
    _check_labels(labels, len(x))
    b = x.shape[0]
    is_target = labels > 0
    rows = np.flatnonzero(is_target)
    la, cache_a = _stage_forward(model.stage_a, cfg, x, rng)
    lb, cache_b = _stage_forward(model.stage_b, cfg, x, rng, rows=rows)
    pa, pb = _softmax2(la), _softmax2(lb)
    losses = cross_entropy(compose_probs(pa, pb), labels)

    onehot_a = np.zeros_like(pa)
    onehot_a[np.arange(b), is_target.astype(int)] = 1.0
    dla = (pa - onehot_a) / b

    dlb = np.zeros_like(pb)
    onehot_b = np.zeros((len(rows), 2), pb.dtype)
    onehot_b[np.arange(len(rows)), labels[rows] - 1] = 1.0
    dlb[rows] = (pb[rows] - onehot_b) / b

    grads_a, dx = _stage_backward(cfg, cache_a, dla, need_input_grad)
    grads_b, dx_b = _stage_backward(cfg, cache_b, dlb, need_input_grad)
    if need_input_grad:
        dx[rows] += dx_b
    return {"stage_a": grads_a, "stage_b": grads_b}, float(losses.mean()), dx


def predict_batch(
    model: HierarchicalModel, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized eval-mode prediction over standardized windows (B, C, T):
    argmax labels (ties break to the lowest index) and probabilities, in
    the windows' dtype."""
    probs = np.empty((x.shape[0], 3), x.dtype)
    for lo in range(0, x.shape[0], PREDICT_CHUNK):
        chunk = x[lo : lo + PREDICT_CHUNK]
        probs[lo : lo + len(chunk)] = forward(model, chunk)
    return probs.argmax(axis=1), probs


def predict_occluded(model: HierarchicalModel, x: np.ndarray) -> np.ndarray:
    """Eval-mode probabilities (C, B, 3), in the windows' dtype, of
    standardized windows (B, C, T) with channel c zeroed, for each c; x is
    not written. Per chunk, each stage's front end z runs once, and channel
    c's copy starts from z less the correlation of x[:, c] with weff[:, c]."""
    cfg = model.config
    _check_input(cfg, x)
    probs = np.empty((cfg.n_channels, x.shape[0], 3), x.dtype)
    stages = (model.stage_a, model.stage_b)
    for lo in range(0, x.shape[0], PREDICT_CHUNK):
        xc = x[lo : lo + PREDICT_CHUNK]
        fronts = []
        for stage in stages:
            w, b = _conv_layers(_params_as(stage, x.dtype), cfg)[0]
            fronts.append((w, _lag_conv(w, xc) + b[None, :, None]))
        for c in range(cfg.n_channels):
            lags = sliding_window_view(xc[:, c], cfg.kernel_len, axis=-1).transpose(0, 2, 1)
            pa, pb = (_softmax2(_stage_forward(stage, cfg, xc, z0=z - w[:, c] @ lags)[0])
                      for stage, (w, z) in zip(stages, fronts))
            probs[c, lo : lo + len(xc)] = compose_probs(pa, pb)
    return probs


def _iter_params(model: HierarchicalModel):
    for stage_name, stage in (("stage_a", model.stage_a), ("stage_b", model.stage_b)):
        for name, value in stage.params.items():
            yield stage_name, name, value


def train(
    model: HierarchicalModel, windows: Windows, cfg: TrainConfig
) -> tuple[HierarchicalModel, list[float]]:
    """Adam with decoupled weight decay on a copy of `model`, over the
    windows standardized as `cut_windows` does. Each batch is cut from
    `windows.samples` into one reused float64 buffer using every window's
    mean and std, computed once, so no float64 copy of the set is made.

    Returns the trained copy and the per-epoch mean loss trace. Shuffling and
    dropout streams derive from cfg.seed, so identical inputs give
    bit-identical results.
    """
    mu, sd = _window_stats(windows)
    y = windows.labels
    batch = np.empty((min(cfg.batch_size, len(y)), windows.samples.shape[0], windows.window_len))
    model = copy.deepcopy(model)

    rng_shuffle = np.random.default_rng(child_seed(cfg.seed, "shuffle"))
    rng_dropout = np.random.default_rng(child_seed(cfg.seed, "dropout"))

    adam_m = {sn: {n: np.zeros_like(v) for n, v in st.params.items()}
              for sn, st in (("stage_a", model.stage_a), ("stage_b", model.stage_b))}
    adam_v = copy.deepcopy(adam_m)
    step = 0
    trace: list[float] = []
    n = len(y)
    for _ in range(cfg.epochs):
        order = rng_shuffle.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            x = _cut_batch(windows, idx, mu, sd, batch)
            grads, mean_loss, _ = backward(model, x, y[idx], rng_dropout)
            if not np.isfinite(mean_loss):
                raise RuntimeError(
                    f"non-finite loss {mean_loss} at step {step}; "
                    "check input scaling and learning rate"
                )
            step += 1
            bc1 = 1.0 - ADAM_BETA1**step
            bc2 = 1.0 - ADAM_BETA2**step
            for stage_name, name, value in _iter_params(model):
                g = grads[stage_name][name]
                m = adam_m[stage_name][name]
                v = adam_v[stage_name][name]
                m += (1.0 - ADAM_BETA1) * (g - m)
                v += (1.0 - ADAM_BETA2) * (g * g - v)
                update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
                value -= cfg.learning_rate * update
                value -= cfg.learning_rate * cfg.weight_decay * value
            loss_sum += mean_loss * len(idx)
        trace.append(loss_sum / n)
    return model, trace


def calibrate(
    model: HierarchicalModel,
    calibration_windows: Windows,
    cfg: TrainConfig,
    lr_scale: float = 0.1,
    epochs: int = 10,
) -> HierarchicalModel:
    """Continue training on calibration data only; the input model is not
    modified. epochs=0 returns an identical copy."""
    if epochs == 0:
        return copy.deepcopy(model)
    tuned_cfg = replace(
        cfg, learning_rate=cfg.learning_rate * lr_scale, epochs=epochs
    )
    tuned, _ = train(model, calibration_windows, tuned_cfg)
    return tuned


def write_loss_trace(trace: list[float], destination) -> None:
    destination.write("epoch,mean_loss\n")
    for i, value in enumerate(trace, start=1):
        destination.write(f"{i},{value!r}\n")


def save_model(model: HierarchicalModel, destination: BinaryIO) -> int:
    """HMDL format: magic, version, config fields, then f64 parameter blobs."""
    cfg = model.config
    fields = [getattr(cfg, name) for name in HMDL_FIELDS]
    head = HMDL_MAGIC + HMDL_HEADER.pack(HMDL_VERSION, *fields, len(cfg.deep_filters))
    head += struct.pack(f"<{len(cfg.deep_filters)}I", *cfg.deep_filters)
    written = destination.write(head)
    for _, _, value in _iter_params(model):
        written += destination.write(np.ascontiguousarray(value, dtype="<f8").tobytes())
    return written


def load_model(source: BinaryIO) -> HierarchicalModel:
    magic = read_exact(source, 4, "magic")
    if magic != HMDL_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {HMDL_MAGIC!r}")
    version, *fields, n_blocks = HMDL_HEADER.unpack(
        read_exact(source, HMDL_HEADER.size, "header")
    )
    if version != HMDL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    deep = struct.unpack(
        f"<{n_blocks}I", read_exact(source, 4 * n_blocks, "deep filters")
    )
    try:
        cfg = NetConfig(deep_filters=deep, **dict(zip(HMDL_FIELDS, fields)))
    except ValueError as exc:
        raise FormatError(f"invalid model config: {exc}") from exc
    stages = []
    for stage_name in ("stage_a", "stage_b"):
        params = {}
        for name, shape in param_shapes(cfg):
            count = math.prod(shape)
            blob = read_exact(source, 8 * count, f"{stage_name}.{name}")
            params[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(params[name]).all():
                raise FormatError(f"non-finite value in {stage_name}.{name}")
        stages.append(StageNet(params))
    read_end(source, "parameters")
    return HierarchicalModel(stages[0], stages[1], cfg)
