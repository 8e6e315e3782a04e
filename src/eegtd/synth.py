"""Deterministic generator of stimulus schedules and synthetic multichannel
EEG with class-dependent evoked templates plus video-dynamics confounders.

Signal model: per-channel low-pass-filtered Gaussian background (optionally
gain-modulated by weather shifts), plus for every target event a spatially
weighted double-bump evoked template centered on `TARGET_PEAK`, plus for
every camera rotation a broadband oscillatory burst centered on
`CONFOUND_PEAK`. Every event contribution depends only on the event itself,
so recordings superpose additively.

The AR(1) background is computed in numpy alone, and its bytes are those of
`scipy.signal.lfilter([scale], [1, -a], x, axis=1)`: lfilter's order-1 loop
rounds each step as y[n] = fl(fl(a*y[n-1]) + fl(scale*x[n])) from a zero
state, and `_ar1_filter` performs exactly those operations in the same
order. To vectorise a recurrence it cuts time into blocks of AR_BLOCK_LEN
samples and steps all blocks of all rows side by side. Each block's start
state is first guessed by running the AR_WARMUP_LEN samples before it from
zero; every guess is then checked against its predecessor's computed end,
and blocks with a wrong guess are re-run until none is left. The check, not
the guess, makes the result exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from eegtd.core import (
    ClassId,
    DynamicsEvent,
    DynamicsKind,
    Event,
    EventSchedule,
    Recording,
)
from eegtd.montage import CHANNEL_NAMES, position, spatial_weights

# Placement margins so analysis baselines/horizons fit around every event.
START_MARGIN_S = 2.0
END_MARGIN_S = 4.0
MIN_SEPARATION_S = 3.0

# AR(1) low-pass background, renormalized to unit variance. A mild
# coefficient keeps most noise power out of the evoked template's band so
# single-window detection stays feasible at the default amplitudes.
BACKGROUND_AR_COEFF = 0.3
# Volume conduction makes scalp noise spatially coherent: this fraction of
# each channel's background variance comes from shared smooth spatial modes,
# the rest from channel-local noise. Per-channel std stays background_sigma.
SPATIAL_NOISE_FRACTION = 0.98
N_SHARED_NOISE_MODES = 4
# Block and warm-up lengths of the vectorised AR(1) recurrence. After 64
# steps at a=0.3 a wrong start state has shrunk by 0.3**64 (about 3e-34), so
# the guessed start is nearly always the exact one.
AR_BLOCK_LEN = 256
AR_WARMUP_LEN = 64
ROTATION_CARRIER_HZ = (6.0, 11.0, 17.0)  # integer Hz keeps bursts phase-locked
WEATHER_PERIOD_S = 60.0
WEATHER_DEPTH = 0.2
ROTATION_DURATION_S = 3.0
# Every session is rendered on the full 32-channel montage at 250 Hz.
SAMPLING_RATE = 250.0
# Evoked template: an N200 trough then a P300 peak, as raised-cosine bumps
# of one half-width; amplitudes in microvolts.
N200_AMP = -4.0
N200_LATENCY_S = 0.20
ERP_LATENCY_S = 0.30
ERP_WIDTH_S = 0.08
# Scalp centres and Gaussian falloff of the evoked and rotation sources.
TARGET_PEAK = "Cz"
CONFOUND_PEAK = "Oz"
SPATIAL_SIGMA = 0.35


class SynthError(ValueError):
    """Generator inputs that cannot produce a valid schedule or recording."""


@dataclass(frozen=True)
class StimulusProfile:
    """Shape of one stimulus video: length, target counts, and dynamics."""

    name: str
    length_s: float
    events_per_class: int
    rotation_period_s: float | None = None
    weather_drift: bool = False

    def __post_init__(self) -> None:
        if self.events_per_class < 1:
            raise ValueError("events_per_class must be >= 1")
        n_events = 2 * self.events_per_class
        needed = (
            START_MARGIN_S
            + END_MARGIN_S
            + (n_events - 1) * MIN_SEPARATION_S
            + 1.0
        )
        if needed > self.length_s:
            raise ValueError(
                f"profile {self.name!r}: {n_events} events with "
                f"{MIN_SEPARATION_S}s separation do not fit in {self.length_s}s"
            )

    @classmethod
    def video1(cls, events_per_class: int = 20) -> "StimulusProfile":
        return cls("video1", 300.0, events_per_class)

    @classmethod
    def video2n(cls, events_per_class: int = 30) -> "StimulusProfile":
        return cls(
            "video2n", 480.0, events_per_class,
            rotation_period_s=5.0, weather_drift=True,
        )


def profile_by_name(name: str, events_per_class: int | None = None) -> StimulusProfile:
    factories = {
        "video1": StimulusProfile.video1,
        "video2n": StimulusProfile.video2n,
    }
    try:
        factory = factories[name.lower()]
    except KeyError:
        raise SynthError(f"unknown profile {name!r}; choose from {sorted(factories)}") from None
    return factory() if events_per_class is None else factory(events_per_class)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic EEG renderer. Amplitudes in microvolts."""

    background_sigma: float = 10.0
    erp_amp_true: float = 8.0
    erp_amp_error: float = 5.0
    confound_amp: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("background_sigma", "erp_amp_true", "erp_amp_error",
                     "confound_amp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.background_sigma < 0:
            raise ValueError("background_sigma must be >= 0")


def make_schedule(profile: StimulusProfile, seed: int) -> EventSchedule:
    """Place targets uniformly with >= 3 s onset separation, plus dynamics.

    Deterministic given (profile, seed). Camera rotations repeat on the
    profile's period from t=0; one weather shift spans the second half.
    """
    rate = SAMPLING_RATE
    total = int(round(profile.length_s * rate))
    n_events = 2 * profile.events_per_class
    sep = int(round(MIN_SEPARATION_S * rate))
    start = int(round(START_MARGIN_S * rate))
    end_limit = total - int(round(END_MARGIN_S * rate))
    slack = (end_limit - start) - (n_events - 1) * sep
    if slack < 0:
        raise SynthError(
            f"cannot place {n_events} events with {MIN_SEPARATION_S}s separation "
            f"in profile {profile.name!r}"
        )
    rng = np.random.default_rng(seed)
    offsets = np.sort(rng.uniform(0.0, slack, size=n_events)).astype(np.int64)
    onsets = start + offsets + np.arange(n_events, dtype=np.int64) * sep
    classes = np.array(
        [ClassId.TRUE_TARGET] * profile.events_per_class
        + [ClassId.ERROR_TARGET] * profile.events_per_class
    )
    rng.shuffle(classes)
    duration = int(round(rate))
    targets = [
        Event(int(onset), ClassId(int(cls)), duration)
        for onset, cls in zip(onsets, classes)
    ]
    dynamics: list[DynamicsEvent] = []
    if profile.rotation_period_s is not None:
        period = int(round(profile.rotation_period_s * rate))
        rot_len = int(round(ROTATION_DURATION_S * rate))
        for onset in range(0, total, period):
            if onset + rot_len <= total:
                dynamics.append(
                    DynamicsEvent(onset, DynamicsKind.CAMERA_ROTATION, rot_len)
                )
    if profile.weather_drift:
        half = total // 2
        dynamics.append(DynamicsEvent(half, DynamicsKind.WEATHER_SHIFT, total - half))
    return EventSchedule(total, rate, targets, dynamics)


def _shared_noise_mixing(labels: list[str]) -> np.ndarray:
    """Per-channel weights of the shared background modes.

    Modes vary smoothly over the scalp (constant, left-right, front-back,
    and a saddle term); each channel's weight row is normalized so the
    shared modes carry exactly SPATIAL_NOISE_FRACTION of its variance.
    """
    xy = np.array([position(lab) for lab in labels])
    modes = np.stack(
        [np.ones(len(labels)), xy[:, 0], xy[:, 1], xy[:, 0] * xy[:, 1]], axis=1
    )
    norms = np.linalg.norm(modes, axis=1, keepdims=True)
    return math.sqrt(SPATIAL_NOISE_FRACTION) * modes / norms


def _ar1_run(u: np.ndarray, y0: np.ndarray, a: float) -> np.ndarray:
    """Overwrite u, down its first axis, with y[t] = fl(fl(a*y[t-1]) + u[t])
    from y[-1] = y0, and return the end state (y0 if u is empty)."""
    prev = y0
    step = np.empty_like(y0)
    for row in u:
        np.multiply(prev, a, out=step)
        row += step
        prev = row
    return prev


def _ar1_filter(x: np.ndarray, a: float, scale: float) -> np.ndarray:
    """Overwrite each row of the C-contiguous float64 array x with
    lfilter([scale], [1, -a], x, axis=1), byte for byte, and return x."""
    rows, n = x.shape
    blk = AR_BLOCK_LEN
    nb = -(-n // blk)
    full, tail = divmod(n, blk)
    x *= scale  # x now holds fl(scale*x[n]), the recurrence's input term
    # Time-major blocks: column row * nb + k holds block k of that row, so
    # each step of the recurrence reads one contiguous row of y. One row at
    # a time keeps the transposing copy in cache.
    y3 = np.empty((blk, rows, nb))
    for r in range(rows):
        y3[:, r, :full] = x[r, : full * blk].reshape(full, blk).T
    if tail:
        y3[:tail, :, full] = x[:, full * blk :].T
        y3[tail:, :, full] = 0.0
    y = y3.reshape(blk, rows * nb)
    first = np.arange(rows * nb) % nb == 0
    start = np.zeros(rows * nb)
    start[1:] = _ar1_run(y[blk - AR_WARMUP_LEN :, :-1].copy(),
                         np.zeros(rows * nb - 1), a)
    start[first] = 0.0
    _ar1_run(y, start, a)
    while True:
        # A block is exact once its start is bit-equal to the end of its
        # exact predecessor; block 0 of each row starts from zero.
        want = np.roll(y[-1], 1)
        want[first] = 0.0
        bad = np.flatnonzero(want.view(np.int64) != start.view(np.int64))
        if not bad.size:
            break
        start[bad] = want[bad]
        r, k = np.divmod(bad, nb)
        t = k * blk + np.arange(blk)[:, None]
        u = np.where(t < n, x[r, np.minimum(t, n - 1)], 0.0)
        _ar1_run(u, start[bad], a)
        y[:, bad] = u
    x[:, : full * blk].reshape(rows, full, blk)[...] = (
        y3[:, :, :full].transpose(1, 2, 0)
    )
    if tail:
        x[:, full * blk :] = y3[:tail, :, full].T
    return x


def _raised_cosine_bump(t: np.ndarray, center_s: float, half_width_s: float) -> np.ndarray:
    """Unit-peak smooth bump with compact support [center-w, center+w]."""
    rel = (t - center_s) / half_width_s
    out = 0.5 * (1.0 + np.cos(np.pi * rel))
    out[np.abs(rel) > 1.0] = 0.0
    return out


def erp_template(cfg: SynthConfig, class_id: ClassId) -> np.ndarray:
    """The evoked waveform added (before spatial weighting) per target event."""
    if class_id == ClassId.TRUE_TARGET:
        amp = cfg.erp_amp_true
    elif class_id == ClassId.ERROR_TARGET:
        amp = cfg.erp_amp_error
    else:
        raise ValueError("non-target class has no evoked template")
    support_s = max(N200_LATENCY_S, ERP_LATENCY_S) + ERP_WIDTH_S
    n = int(round(support_s * SAMPLING_RATE)) + 1
    t = np.arange(n) / SAMPLING_RATE
    return N200_AMP * _raised_cosine_bump(
        t, N200_LATENCY_S, ERP_WIDTH_S
    ) + amp * _raised_cosine_bump(t, ERP_LATENCY_S, ERP_WIDTH_S)


def rotation_burst(cfg: SynthConfig, onset: int, duration: int) -> np.ndarray:
    """Hann-enveloped multi-sine burst evaluated at absolute stream time."""
    t_abs = (onset + np.arange(duration)) / SAMPLING_RATE
    carrier = np.zeros(duration)
    for f in ROTATION_CARRIER_HZ:
        carrier += np.sin(2.0 * np.pi * f * t_abs)
    carrier /= len(ROTATION_CARRIER_HZ)
    return cfg.confound_amp * np.hanning(duration) * carrier


def render_eeg(schedule: EventSchedule, cfg: SynthConfig) -> Recording:
    """Render background + target templates + rotation bursts into a Recording."""
    if abs(schedule.sampling_rate - SAMPLING_RATE) > 1e-9:
        raise SynthError(
            f"schedule rate {schedule.sampling_rate} != render rate {SAMPLING_RATE}"
        )
    labels = list(CHANNEL_NAMES)
    n = schedule.total_samples

    if cfg.background_sigma > 0:
        rng = np.random.default_rng(cfg.seed)
        a = BACKGROUND_AR_COEFF
        scale = math.sqrt(1.0 - a * a)
        # The shared modes' draws come first, then the channels' own.
        bg = _ar1_filter(
            rng.standard_normal((N_SHARED_NOISE_MODES + len(labels), n)),
            a, scale,
        )
        shared, own = bg[:N_SHARED_NOISE_MODES], bg[N_SHARED_NOISE_MODES:]
        # Scaled and summed in place: no session-sized temporaries.
        own *= math.sqrt(1.0 - SPATIAL_NOISE_FRACTION)
        x = _shared_noise_mixing(labels) @ shared
        x += own
        del bg, shared, own
        x *= cfg.background_sigma
        for dyn in schedule.dynamics:
            if dyn.kind == DynamicsKind.WEATHER_SHIFT:
                t_rel = np.arange(dyn.duration) / SAMPLING_RATE
                gain = 1.0 + WEATHER_DEPTH * np.sin(
                    2.0 * np.pi * t_rel / WEATHER_PERIOD_S
                )
                x[:, dyn.onset : dyn.end] *= gain
    else:
        x = np.zeros((len(labels), n))

    w_target = spatial_weights(TARGET_PEAK, labels, SPATIAL_SIGMA)
    for ev in schedule.targets:
        g = erp_template(cfg, ev.class_id)
        span = min(len(g), n - ev.onset)
        x[:, ev.onset : ev.onset + span] += np.outer(w_target, g[:span])

    if cfg.confound_amp != 0.0:
        w_conf = spatial_weights(CONFOUND_PEAK, labels, SPATIAL_SIGMA)
        for dyn in schedule.dynamics:
            if dyn.kind == DynamicsKind.CAMERA_ROTATION:
                burst = rotation_burst(cfg, dyn.onset, dyn.duration)
                x[:, dyn.onset : dyn.end] += np.outer(w_conf, burst)

    return Recording(SAMPLING_RATE, labels, x.astype(np.float32))
