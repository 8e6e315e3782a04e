"""Hierarchical model: composition, gradients vs finite differences,
training determinism, serialization."""

import ast
import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import eegtd
from conftest import windows_end_to_end
from eegtd.core import FormatError, Windows
from eegtd.metrics import ConfusionMatrix, MetricConfig, macro_f_beta
from eegtd.model import (
    CONV_CHUNK_BYTES,
    PREDICT_CHUNK,
    STACK_CHUNK,
    HierarchicalModel,
    NetConfig,
    StageNet,
    TrainConfig,
    backward,
    calibrate,
    compose_probs,
    cross_entropy,
    cut_windows,
    forward,
    init_model,
    load_model,
    loss_clamp_count,
    param_shapes,
    predict_batch,
    predict_occluded,
    save_model,
    standardize,
    train,
    _cut_batch,
    _elu,
    _elu_grad,
    _lag_conv,
    _lag_conv_input_grad,
    _maxpool,
    _maxpool_backward,
    _softmax2,
    _stage_backward,
    _stage_forward,
    _window_stats,
)

TINY = NetConfig(
    n_channels=3,
    window_len=20,
    temporal_filters=2,
    deep_filters=(2,),
    kernel_len=3,
    pool_len=2,
    dropout_rate=0.0,
    dense_hidden=4,
)


@pytest.fixture()
def tiny_model():
    return init_model(TINY, seed=11)


@pytest.fixture()
def tiny_input():
    """One standardized window as a 1-row batch (1, 3, 20)."""
    rng = np.random.default_rng(42)
    return standardize(rng.standard_normal((1, 3, 20)))


def finite_difference(model, x, labels, stage_name, param_name, index, h=1e-4):
    stage = getattr(model, stage_name)
    flat = stage.params[param_name].ravel()
    orig = flat[index]
    flat[index] = orig + h
    lp = cross_entropy(forward(model, x), labels)[0]
    flat[index] = orig - h
    lm = cross_entropy(forward(model, x), labels)[0]
    flat[index] = orig
    return (lp - lm) / (2 * h)


class TestComposition:
    def test_identity_example(self):
        probs = compose_probs(np.array([[0.8, 0.2]]), np.array([[0.5, 0.5]]))
        assert probs[0] == pytest.approx([0.8, 0.1, 0.1])

    def test_zeroed_parameters_uniform(self, tiny_model, tiny_input):
        for stage in (tiny_model.stage_a, tiny_model.stage_b):
            for name in stage.params:
                stage.params[name][:] = 0.0
        probs = forward(tiny_model, tiny_input)[0]
        assert probs == pytest.approx([0.5, 0.25, 0.25])

    def test_simplex_on_random_parameter_draws(self, tiny_input):
        for seed in range(200):
            model = init_model(TINY, seed=seed)
            probs = forward(model, tiny_input)[0]
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(probs >= 0)


class TestLoss:
    def test_hand_values(self):
        probs = np.array([[0.8, 0.1, 0.1], [0.5, 0.25, 0.25]])
        value = cross_entropy(probs, np.array([1, 0]))
        assert value == pytest.approx([2.302585, 0.693147], abs=1e-6)

    def test_certain_prediction_zero_loss(self):
        assert cross_entropy(np.array([[0.0, 1.0, 0.0]]), np.array([1]))[0] == 0.0

    def test_zero_probability_clamped_with_warning(self):
        before = loss_clamp_count()
        value = cross_entropy(np.array([[1.0, 0.0, 0.0]]), np.array([1]))[0]
        assert value == pytest.approx(-np.log(1e-12))
        assert loss_clamp_count() - before == 1


class TestLabelValidation:
    @pytest.mark.parametrize("labels", [
        np.array([0, 1, -1]),
        np.array([0, 3, 1]),
        np.array([0, 1]),
        np.array([0, 1, 2, 0]),
        np.array([[0, 1, 2]]),
        np.array([0.0, 1.0, 2.0]),
        [0, 1, 2],
    ], ids=["negative", "above-2", "short", "long", "2-d", "float", "list"])
    def test_bad_labels_rejected(self, tiny_model, labels):
        # A -1 label used to train silently: stage A read it as non-target
        # while the loss picked class 2.
        x = standardize(np.random.default_rng(0).standard_normal((3, 3, 20)))
        with pytest.raises(ValueError, match="labels"):
            backward(tiny_model, x, labels)
        with pytest.raises(ValueError, match="labels"):
            cross_entropy(forward(tiny_model, x), labels)


class TestStandardize:
    def test_constant_row_zeroed(self):
        out = standardize(np.full((2, 5), 7.0))
        assert np.array_equal(out, np.zeros((2, 5)))

    def test_two_point_row(self):
        out = standardize(np.array([[0.0, 2.0]]))
        assert out[0] == pytest.approx([-1.0, 1.0])

    def test_rows_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        out = standardize(rng.standard_normal((4, 100)) * 9 + 3)
        assert np.abs(out.mean(axis=1)).max() < 1e-9
        assert np.abs(out.std(axis=1) - 1).max() < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 50))
        once = standardize(x)
        twice = standardize(once)
        assert np.abs(twice - once).max() < 1e-9

    def test_matches_out_of_place_formula_bit_for_bit(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 50)).astype(np.float32) * 9 + 3
        x[1, 2] = 5.0
        ref = x.astype(np.float64)
        mu = ref.mean(axis=-1, keepdims=True)
        sd = ref.std(axis=-1, keepdims=True)
        ref = np.where(sd < 1e-9, 0.0, (ref - mu) / np.where(sd < 1e-9, 1.0, sd))
        assert np.array_equal(standardize(x), ref)

    def test_leaves_float64_input_untouched(self):
        x = np.random.default_rng(3).standard_normal((4, 50))
        before = x.copy()
        standardize(x)
        assert np.array_equal(x, before)


def random_windows(n, shape=(3, 20), seed=0):
    """n random float32 windows (n, *shape)."""
    rng = np.random.default_rng(seed)
    return np.stack([(rng.standard_normal(shape) * 5 + 2).astype(np.float32)
                     for _ in range(n)])


def stacked(windows):
    return cut_windows(windows.samples, windows.window_len, windows.starts)


class TestStackEpochs:
    """`cut_windows`, the one cutter every path stacks its windows with."""

    def test_chunked_stack_equals_whole_stack_bit_for_bit(self):
        data = random_windows(2 * STACK_CHUNK + 1)
        data[STACK_CHUNK + 3] = np.full((3, 20), 4.0, np.float32)
        labels = np.arange(len(data)) % 3
        windows = windows_end_to_end(data, labels)
        x = stacked(windows)
        ref = standardize(data.astype(np.float64))
        assert x.dtype == np.float64
        assert np.array_equal(x, ref)
        assert np.array_equal(windows.labels, labels)

    def test_peak_memory_near_output_size(self):
        rng = np.random.default_rng(4)
        n, c, t = 1000, 32, 250
        rec = rng.standard_normal((c, n * 25 + t)).astype(np.float32)
        windows = Windows(rec, t, np.arange(n) * 25, np.zeros(n))
        tracemalloc.start()
        try:
            x = stacked(windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.shape == (n, c, t)
        assert peak <= 1.2 * x.nbytes

    def test_float32_output_rounds_as_astype(self):
        data = random_windows(2 * STACK_CHUNK + 1)
        data[5, 1] = 4.0
        windows = windows_end_to_end(data, np.zeros(len(data)))
        x = cut_windows(windows.samples, windows.window_len, windows.starts, np.float32)
        assert x.dtype == np.float32
        assert np.array_equal(x, stacked(windows).astype(np.float32))


class TestTrainBatchCut:
    """`train` cuts each batch from the samples with every window's stats,
    computed once, instead of stacking the set."""

    def test_batch_cut_equals_cut_windows_bit_for_bit(self):
        rng = np.random.default_rng(12)
        c, t, s = 3, 20, 400
        rec = (rng.standard_normal((c, s)) * 5 + 2).astype(np.float32)
        rec[1, 100:140] = 4.0  # channel 1 is flat in windows starting at 100 to 120
        starts = np.r_[np.arange(0, s - t, 5), 110, s - t]  # the last ends at sample s - 1
        windows = Windows(rec, t, starts, np.zeros(len(starts)))
        assert len(windows) > STACK_CHUNK
        mu, sd = _window_stats(windows)
        batch_size = 16
        out = np.empty((batch_size, c, t))
        order = rng.permutation(len(starts))
        batches = [order[lo : lo + batch_size] for lo in range(0, len(order), batch_size)]
        assert 1 < len(batches[-1]) < batch_size
        for idx in [*batches, order[:1], np.array([len(starts) - 1])]:
            x = _cut_batch(windows, idx, mu, sd, out)
            assert np.array_equal(x, cut_windows(rec, t, starts[idx]))
        flat = _cut_batch(windows, np.array([len(starts) - 2]), mu, sd, out)
        assert np.array_equal(flat[0, 1], np.zeros(t)) and flat[0, 0].std() > 0.5

    def test_train_peaks_well_below_a_float64_stack(self):
        cfg = NetConfig(n_channels=8, window_len=100, temporal_filters=2, deep_filters=(2,),
                        kernel_len=5, pool_len=3, dropout_rate=0.0, dense_hidden=4)
        n = 2000
        rng = np.random.default_rng(4)
        rec = rng.standard_normal((cfg.n_channels, 10 * n + cfg.window_len)).astype(np.float32)
        windows = Windows(rec, cfg.window_len, np.arange(n) * 10, np.arange(n) % 3)
        model = init_model(cfg, seed=3)
        stack_bytes = n * cfg.n_channels * cfg.window_len * 8
        tracemalloc.start()
        try:
            train(model, windows, TrainConfig(batch_size=128, epochs=1, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About a fifth of it: batch-sized buffers and two (N, C, 1) stats arrays.
        assert peak < stack_bytes / 2


class TestGradients:
    def test_all_parameters_match_finite_differences(self, tiny_model, tiny_input):
        # every parameter of a tiny config, all three labels
        for label in (0, 1, 2):
            labels = np.array([label])
            grads, _, _ = backward(tiny_model, tiny_input, labels)
            for stage_name in ("stage_a", "stage_b"):
                stage = getattr(tiny_model, stage_name)
                for name, arr in stage.params.items():
                    for index in range(arr.size):
                        fd = finite_difference(
                            tiny_model, tiny_input, labels, stage_name, name, index
                        )
                        an = grads[stage_name][name].ravel()[index]
                        rel = abs(an - fd) / (abs(an) + 1e-8)
                        assert rel < 1e-4, (label, stage_name, name, index)

    def test_stage_b_gradient_zero_for_nontarget_label(self, tiny_model, tiny_input):
        # composed probability of class 0 is a0 alone, so stage B gets no signal
        grads, _, _ = backward(tiny_model, tiny_input, np.array([0]))
        for name, g in grads["stage_b"].items():
            assert np.all(g == 0.0), name

    def test_both_stages_nonzero_for_target_labels(self, tiny_model, tiny_input):
        for label in (1, 2):
            grads, _, _ = backward(tiny_model, tiny_input, np.array([label]))
            assert max(np.abs(g).max() for g in grads["stage_a"].values()) > 0
            assert max(np.abs(g).max() for g in grads["stage_b"].values()) > 0

    def test_deterministic_without_dropout(self, tiny_model, tiny_input):
        g1, l1, _ = backward(tiny_model, tiny_input, np.array([1]))
        g2, l2, _ = backward(tiny_model, tiny_input, np.array([1]))
        assert l1 == l2
        for sn in ("stage_a", "stage_b"):
            for name in g1[sn]:
                assert np.array_equal(g1[sn][name], g2[sn][name])

    def test_input_gradient_matches_finite_differences(self, tiny_model, tiny_input):
        labels = np.array([1])
        _, _, dx = backward(tiny_model, tiny_input, labels, need_input_grad=True)
        x = tiny_input.copy()
        h = 1e-4
        rng = np.random.default_rng(0)
        for _ in range(6):
            i = rng.integers(0, x.size)
            flat = x.ravel()
            orig = flat[i]
            flat[i] = orig + h
            lp = cross_entropy(forward(tiny_model, x), labels)[0]
            flat[i] = orig - h
            lm = cross_entropy(forward(tiny_model, x), labels)[0]
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(dx.ravel()[i] - fd) / (abs(fd) + 1e-8) < 1e-3

    @pytest.mark.parametrize("dropout", [False, True], ids=["eval", "dropout"])
    def test_float32_input_gives_float32_gradients(self, dropout):
        # Every kernel follows its input's dtype: no temporary upcasts a
        # float32 pass to float64, and the values are the float64 pass's to
        # float32 rounding.
        cfg = NetConfig()
        model = init_model(cfg, seed=4)
        labels = mixed_labels(8, 5, seed=1)
        x = standardize(np.random.default_rng(8).standard_normal((8, 32, 250)))
        results = {}
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(5) if dropout else None
            grads, loss, dx = backward(model, x.astype(dtype), labels, rng, need_input_grad=True)
            assert dx.dtype == dtype
            for stage_name, stage_grads in grads.items():
                for name, value in stage_grads.items():
                    assert value.dtype == dtype, f"{stage_name}.{name}"
            results[dtype] = grads, loss, dx
        (g64, loss64, dx64), (g32, loss32, dx32) = results[np.float64], results[np.float32]
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        tol = 1e-3  # relative to each array's largest entry; float32 eps is 1.2e-7
        for stage_name in g64:
            for name, value in g64[stage_name].items():
                np.testing.assert_allclose(g32[stage_name][name], value, rtol=0,
                                           atol=tol * np.abs(value).max(),
                                           err_msg=f"{stage_name}.{name}")
        np.testing.assert_allclose(dx32, dx64, rtol=0, atol=tol * np.abs(dx64).max())


def reference_conv(w, x):
    """Valid cross-correlation of x (B, C, T) with w (G, C, K) over im2col
    windows: (B, G, T-K+1)."""
    return np.einsum("bctk,gck->bgt", sliding_window_view(x, w.shape[-1], axis=2), w)


def reference_conv_grads(dz, x, w):
    """Gradients of reference_conv w.r.t. w (im2col windows of x) and x (full
    correlation of the zero-padded dz with the lag-flipped kernel)."""
    k = w.shape[-1]
    dw = np.einsum("bgt,bctk->gck", dz, sliding_window_view(x, k, axis=2))
    dz_pad = np.pad(dz, ((0, 0), (0, 0), (k - 1, k - 1)))
    dx = np.einsum("bgtk,gck->bct", sliding_window_view(dz_pad, k, axis=2), w[:, :, ::-1])
    return dw, dx


def argmax_pool(a, p):
    """Max pool along the last axis by argmax, the reference for `_maxpool`:
    (values, each pool's first maximum's index); remainder samples drop."""
    n = a.shape[-1] // p
    pools = a[..., : n * p].reshape(*a.shape[:-1], n, p)
    idx = pools.argmax(axis=-1)
    return np.take_along_axis(pools, idx[..., None], axis=-1)[..., 0], idx


def argmax_unpool(dout, idx, p, length):
    """dout put at each pool's index idx of a zero array of last axis
    `length`: the reference for `_maxpool_backward`."""
    n = dout.shape[-1]
    grad = np.zeros((*dout.shape[:-1], length), dout.dtype)
    pools = grad[..., : n * p].reshape(*dout.shape[:-1], n, p)
    np.put_along_axis(pools, idx[..., None], dout[..., None], axis=-1)
    return grad


def reference_stage(p, cfg, x, dlogits_of, rng=None):
    """One stage, forward then backward, with every convolution by
    reference_conv: (logits, parameter grads, input grad). dlogits_of maps
    the logits to the loss gradient. With an rng, inverted-dropout masks are
    drawn from it after each pooled conv layer and then after the dense
    hidden layer, in that order."""
    def mask(shape):
        if rng is None:
            return np.ones(shape)
        return (rng.random(shape) >= cfg.dropout_rate) / (1.0 - cfg.dropout_rate)

    weff = np.einsum("gfc,fk->gck", p["w_spat"], p["w_time"])
    convs = [(weff, p["b_spat"])]
    convs += [(p[f"w_conv{i}"], p[f"b_conv{i}"]) for i in range(len(cfg.deep_filters))]
    layers = []
    h = x
    for w, b in convs:
        z = reference_conv(w, h) + b[None, :, None]
        pooled, idx = argmax_pool(_elu(z), cfg.pool_len)
        m = mask(pooled.shape)
        layers.append((h, z, idx, m))
        h = pooled * m
    flat = h.reshape(len(x), -1)
    d1 = flat @ p["w_dense"] + p["b_dense"]
    m_hid = mask(d1.shape)
    hid = _elu(d1) * m_hid
    logits = hid @ p["w_out"] + p["b_out"]

    dl = dlogits_of(logits)
    g = {"w_out": hid.T @ dl, "b_out": dl.sum(axis=0)}
    dd1 = (dl @ p["w_out"].T) * m_hid * _elu_grad(d1)
    g["w_dense"], g["b_dense"] = flat.T @ dd1, dd1.sum(axis=0)
    dh = (dd1 @ p["w_dense"].T).reshape(h.shape)
    for i in reversed(range(len(convs))):
        h_in, z, idx, m = layers[i]
        dz = argmax_unpool(dh * m, idx, cfg.pool_len, z.shape[-1]) * _elu_grad(z)
        dw, dh = reference_conv_grads(dz, h_in, convs[i][0])
        if i == 0:
            g["b_spat"] = dz.sum(axis=(0, 2))
            g["w_time"] = np.einsum("gck,gfc->fk", dw, p["w_spat"])
            g["w_spat"] = np.einsum("gck,fk->gfc", dw, p["w_time"])
        else:
            g[f"w_conv{i - 1}"], g[f"b_conv{i - 1}"] = dw, dz.sum(axis=(0, 2))
    return logits, g, dh


def assert_close(got, ref, what):
    # rtol relative to the array's largest entry: single entries that
    # cancel to near zero carry the rounding of their larger terms.
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(),
                               err_msg=what)


class TestDefaultConfigReference:
    """The default NetConfig (32 x 250, K=10, blocks (8, 16)) against the
    sliding-window reference; the finite-difference tests cover only TINY."""

    @pytest.mark.parametrize("labels", [[2], [0, 1, 2, 1, 0], [0, 0], [0, 2, 0, 0]])
    def test_backward_matches_reference(self, labels):
        cfg = NetConfig()
        model = init_model(cfg, seed=4)
        labels = np.array(labels)
        b = len(labels)
        x = standardize(np.random.default_rng(b).standard_normal((b, 32, 250)))
        target = labels > 0

        def d_a(logits):
            return (_softmax2(logits) - np.eye(2)[target.astype(int)]) / b

        def d_b(logits):
            onehot = np.eye(2)[np.maximum(labels - 1, 0)]
            return np.where(target[:, None], _softmax2(logits) - onehot, 0.0) / b

        la, ref_a, dx_a = reference_stage(model.stage_a.params, cfg, x, d_a)
        lb, ref_b, dx_b = reference_stage(model.stage_b.params, cfg, x, d_b)
        pa = _softmax2(_stage_forward(model.stage_a, cfg, x)[0])
        pb = _softmax2(_stage_forward(model.stage_b, cfg, x)[0])
        assert_close(pa, _softmax2(la), "stage A softmax")
        assert_close(pb, _softmax2(lb), "stage B softmax")
        ref_probs = compose_probs(_softmax2(la), _softmax2(lb))
        assert_close(forward(model, x), ref_probs, "composed probabilities")
        grads, mean_loss, dx = backward(model, x, labels, need_input_grad=True)
        ref_loss = -np.log(ref_probs[np.arange(b), labels])
        assert mean_loss == pytest.approx(ref_loss.mean(), rel=1e-12)
        for stage_name, ref in (("stage_a", ref_a), ("stage_b", ref_b)):
            assert grads[stage_name].keys() == ref.keys()
            for name, value in ref.items():
                assert_close(grads[stage_name][name], value, f"{stage_name}.{name}")
        assert_close(dx, dx_a + dx_b, "input gradient")

    def test_backward_with_dropout_matches_reference(self):
        # Masks come from the rng in the order stage A (front end, each
        # block, dense hidden), then stage B.
        cfg = NetConfig()
        assert cfg.dropout_rate > 0
        model = init_model(cfg, seed=4)
        labels = np.array([0, 1, 2, 1, 2])
        b = len(labels)
        x = standardize(np.random.default_rng(3).standard_normal((b, 32, 250)))
        target = labels > 0

        def d_a(logits):
            return (_softmax2(logits) - np.eye(2)[target.astype(int)]) / b

        def d_b(logits):
            onehot = np.eye(2)[np.maximum(labels - 1, 0)]
            return np.where(target[:, None], _softmax2(logits) - onehot, 0.0) / b

        rng = np.random.default_rng(5)
        la, ref_a, _ = reference_stage(model.stage_a.params, cfg, x, d_a, rng)
        lb, ref_b, _ = reference_stage(model.stage_b.params, cfg, x, d_b, rng)
        grads, mean_loss, _ = backward(model, x, labels, np.random.default_rng(5))
        ref_loss = -np.log(compose_probs(_softmax2(la), _softmax2(lb))[np.arange(b), labels])
        assert mean_loss == pytest.approx(ref_loss.mean(), rel=1e-12)
        _, no_dropout_loss, _ = backward(model, x, labels)
        assert mean_loss != pytest.approx(no_dropout_loss, rel=1e-6)
        for stage_name, ref in (("stage_a", ref_a), ("stage_b", ref_b)):
            for name, value in ref.items():
                assert_close(grads[stage_name][name], value, f"{stage_name}.{name}")


def mixed_labels(b, n_target, seed):
    rng = np.random.default_rng(seed)
    labels = np.zeros(b, dtype=np.int64)
    labels[rng.choice(b, n_target, replace=False)] = rng.integers(1, 3, n_target)
    return labels


class TestStageBTargetRows:
    """backward runs stage B's conv layers on the target rows alone. Its
    results must be the whole-batch computation's, bit for bit: both stages
    run on every row, with zero stage-B loss gradient on non-target rows."""

    @pytest.mark.parametrize("dropout", [False, True], ids=["eval", "dropout"])
    @pytest.mark.parametrize("labels", [
        mixed_labels(8, 0, seed=0),
        mixed_labels(8, 1, seed=1),
        mixed_labels(8, 2, seed=2),
        mixed_labels(64, 14, seed=3),
    ], ids=["0-targets", "1-target", "2-targets", "14-of-64"])
    def test_equals_whole_batch_bit_for_bit(self, labels, dropout):
        cfg = NetConfig()
        assert cfg.dropout_rate > 0
        model = init_model(cfg, seed=4)
        b = len(labels)
        x = standardize(np.random.default_rng(b).standard_normal((b, 32, 250)))
        rng = np.random.default_rng(5) if dropout else None
        grads, mean_loss, dx = backward(model, x, labels, rng, need_input_grad=True)

        ref_rng = np.random.default_rng(5) if dropout else None
        target = labels > 0
        la, cache_a = _stage_forward(model.stage_a, cfg, x, ref_rng)
        lb, cache_b = _stage_forward(model.stage_b, cfg, x, ref_rng)
        pa, pb = _softmax2(la), _softmax2(lb)
        dla = (pa - np.eye(2)[target.astype(int)]) / b
        dlb = np.where(target[:, None], pb - np.eye(2)[np.maximum(labels - 1, 0)], 0.0) / b
        ref_a, dx_a = _stage_backward(cfg, cache_a, dla, need_input_grad=True)
        ref_b, dx_b = _stage_backward(cfg, cache_b, dlb, need_input_grad=True)

        ref_loss = cross_entropy(compose_probs(pa, pb), labels).mean()
        assert mean_loss == ref_loss
        for stage_name, ref in (("stage_a", ref_a), ("stage_b", ref_b)):
            assert grads[stage_name].keys() == ref.keys()
            for name, value in ref.items():
                assert np.array_equal(grads[stage_name][name], value), f"{stage_name}.{name}"
        assert np.array_equal(dx, dx_a + dx_b)
        if dropout:
            # Stage B drew every mask at the whole batch's shape.
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def whole_batch_lag_conv(w, x):
    """`_lag_conv` as one whole-batch sum, lag by lag: the reference."""
    k = w.shape[-1]
    t1 = x.shape[-1] - k + 1
    out = np.matmul(w[:, :, 0], x[..., :t1])
    for kk in range(1, k):
        out += np.matmul(w[:, :, kk], x[..., kk : kk + t1])
    return out


def whole_batch_lag_conv_input_grad(w, dz):
    """`_lag_conv_input_grad` as one whole-batch sum: the reference."""
    k = w.shape[-1]
    t1 = dz.shape[-1]
    dx = np.zeros((dz.shape[0], w.shape[1], t1 + k - 1), np.result_type(w, dz))
    for kk in range(k):
        dx[:, :, kk : kk + t1] += np.matmul(w[:, :, kk].T, dz)
    return dx


def tie_heavy(shape, seed):
    """Integers in [-2, 2] with random signs, so pools tie often and zeros
    come as both 0.0 and -0.0. Row [0, 0] is all 2.0; rows [0, 1] and [0, 2]
    alternate 0.0 and -0.0, one starting with each."""
    rng = np.random.default_rng(seed)
    a = np.copysign(rng.integers(-2, 3, size=shape), rng.choice([-1.0, 1.0], size=shape))
    a[0, 0] = 2.0
    a[0, 1] = np.where(np.arange(shape[-1]) % 2, -0.0, 0.0)
    a[0, 2] = -a[0, 1]
    return a


class TestKernels:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("length", [9, 10, 11])
    def test_maxpool_values_equal_maxpool(self, p, length):
        # Against the argmax oracle, zero signs included; lengths 10 and 11
        # leave a remainder to drop at p=3.
        for dtype in (np.float64, np.float32):
            a = tie_heavy((4, 5, length), length).astype(dtype)
            ref, _ = argmax_pool(a, p)
            got = _maxpool(a, p)
            assert got.dtype == dtype
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("length", [9, 10, 11])
    def test_maxpool_backward_routes_to_first_maximum(self, p, length):
        # Ties, ±0.0 among them, go to the first maximum, as argmax picks;
        # the dropped remainder gets 0.
        for dtype in (np.float64, np.float32):
            a = tie_heavy((4, 5, length), length + 100).astype(dtype)
            zp = _maxpool(a, p)
            dout = np.arange(1, zp.size + 1, dtype=dtype).reshape(zp.shape)
            got = _maxpool_backward(dout, a, zp, p)
            ref = argmax_unpool(dout, argmax_pool(a, p)[1], p, length)
            assert got.dtype == dtype
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_maxpool_values_ignore_the_remainder(self):
        a = np.array([[1.0, 3.0, 2.0, 0.0, -1.0, -2.0, 9.0]])
        assert np.array_equal(_maxpool(a, 3), [[3.0, 0.0]])

    def test_elu_equals_where_form(self):
        z = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-17, -1e-17, -40.0, -800.0,
                      np.inf, -np.inf])
        ref = np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
        assert np.array_equal(_elu(z), ref)

    # (G, C, T) of the default front end, block 0 and block 1, K = 10.
    @pytest.mark.parametrize("g, c, t", [(8, 32, 250), (8, 8, 80), (16, 8, 23)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_chunked_lag_sums_equal_whole_batch_bit_for_bit(self, g, c, t, dtype):
        rng = np.random.default_rng(g * c + t)
        w = rng.standard_normal((g, c, 10)).astype(dtype)
        t1 = t - 9
        itemsize = np.dtype(dtype).itemsize
        # r: the rows of one chunk, for the output of each kernel.
        for kernel, reference, row_bytes, operand in [
            (_lag_conv, whole_batch_lag_conv, g * t1 * itemsize, (c, t)),
            (_lag_conv_input_grad, whole_batch_lag_conv_input_grad, c * t * itemsize, (g, t1)),
        ]:
            r = max(1, CONV_CHUNK_BYTES // row_bytes)
            for b in sorted({0, 1, r - 1, r, r + 1, 2 * r + 3}):
                a = rng.standard_normal((b, *operand)).astype(dtype)
                got, expected = kernel(w, a), reference(w, a)
                assert got.dtype == expected.dtype == dtype
                assert np.array_equal(got, expected), (kernel.__name__, b)


def make_toy_epochs(n_per_class=40, seed=0):
    """Noise-free separable windows: distinct fixed spatiotemporal patterns."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((3, 3, 20))
    data, labels = [], []
    for c in (0, 1, 2):
        for i in range(n_per_class):
            jitter = 0.05 * rng.standard_normal((3, 20))
            data.append((base[c] + jitter).astype(np.float32))
            labels.append(c)
    return windows_end_to_end(data, labels)


class TestTraining:
    def test_loss_decreases_and_separable_set_reaches_macro_one(self):
        epochs = make_toy_epochs()
        model = init_model(TINY, seed=3)
        cfg = TrainConfig(batch_size=32, epochs=60, seed=5)
        trained, trace = train(model, epochs, cfg)
        assert trace[-1] < trace[0]
        x = stacked(epochs)
        y = epochs.labels
        pred, _ = predict_batch(trained, x)
        cm = ConfusionMatrix()
        for t, p in zip(y, pred):
            cm.add(t, p)
        assert macro_f_beta(cm, MetricConfig()) == 1.0

    def test_zero_learning_rate_keeps_parameters(self):
        epochs = make_toy_epochs(n_per_class=8)
        model = init_model(TINY, seed=3)
        cfg = TrainConfig(batch_size=16, epochs=2, learning_rate=0.0, weight_decay=0.0, seed=5)
        trained, _ = train(model, epochs, cfg)
        for sn in ("stage_a", "stage_b"):
            before = getattr(model, sn).params
            after = getattr(trained, sn).params
            for name in before:
                assert np.array_equal(before[name], after[name])

    def test_bit_identical_given_seed(self):
        epochs = make_toy_epochs(n_per_class=12)
        cfg = TrainConfig(batch_size=16, epochs=3, seed=9)
        t1, trace1 = train(init_model(TINY, seed=3), epochs, cfg)
        t2, trace2 = train(init_model(TINY, seed=3), epochs, cfg)
        assert trace1 == trace2
        for sn in ("stage_a", "stage_b"):
            for name, arr in getattr(t1, sn).params.items():
                assert np.array_equal(arr, getattr(t2, sn).params[name])

    def test_original_model_untouched(self):
        epochs = make_toy_epochs(n_per_class=8)
        model = init_model(TINY, seed=3)
        snapshot = {n: a.copy() for n, a in model.stage_a.params.items()}
        train(model, epochs, TrainConfig(batch_size=16, epochs=1, seed=5))
        for name, arr in model.stage_a.params.items():
            assert np.array_equal(arr, snapshot[name])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train(init_model(TINY, seed=3), windows_end_to_end(np.empty((0, 3, 20)), []),
                  TrainConfig())


class TestCalibrate:
    def test_zero_epochs_is_identity(self):
        model = init_model(TINY, seed=3)
        tuned = calibrate(model, make_toy_epochs(4), TrainConfig(seed=1), epochs=0)
        for sn in ("stage_a", "stage_b"):
            for name, arr in getattr(model, sn).params.items():
                assert np.array_equal(arr, getattr(tuned, sn).params[name])

    def test_empty_calibration_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            calibrate(init_model(TINY, seed=3), windows_end_to_end(np.empty((0, 3, 20)), []),
                      TrainConfig(seed=1))

    def test_deterministic(self):
        model = init_model(TINY, seed=3)
        epochs = make_toy_epochs(8)
        a = calibrate(model, epochs, TrainConfig(batch_size=16, seed=2), epochs=2)
        b = calibrate(model, epochs, TrainConfig(batch_size=16, seed=2), epochs=2)
        for sn in ("stage_a", "stage_b"):
            for name, arr in getattr(a, sn).params.items():
                assert np.array_equal(arr, getattr(b, sn).params[name])

    def test_improves_on_shifted_distribution(self):
        # pretrain on one pattern set, calibrate on a shifted one
        pre = make_toy_epochs(n_per_class=30, seed=0)
        shifted = make_toy_epochs(n_per_class=30, seed=7)
        model, _ = train(
            init_model(TINY, seed=3), pre, TrainConfig(batch_size=32, epochs=40, seed=5)
        )

        def score(m, epochs):
            x = stacked(epochs)
            y = epochs.labels
            pred, _ = predict_batch(m, x)
            cm = ConfusionMatrix()
            for t, p in zip(y, pred):
                cm.add(t, p)
            return macro_f_beta(cm, MetricConfig())

        before = score(model, shifted)
        tuned = calibrate(
            model, shifted, TrainConfig(batch_size=32, seed=6), lr_scale=1.0, epochs=30
        )
        after = score(tuned, shifted)
        assert after >= before - 0.05


class TestPredict:
    def test_argmax_and_tie_break(self, tiny_model, tiny_input):
        labels, probs = predict_batch(tiny_model, tiny_input)
        assert int(labels[0]) == int(np.argmax(probs[0]))
        # explicit tie-break check on the documented rule
        assert np.argmax(np.array([0.4, 0.4, 0.2])) == 0

    def test_matches_forward_on_random_inputs(self, tiny_model):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = standardize(rng.standard_normal((1, 3, 20)))
            labels, probs = predict_batch(tiny_model, x)
            assert np.array_equal(probs, forward(tiny_model, x))
            assert int(labels[0]) == int(np.argmax(probs[0]))

    def test_batch_matches_single_window_forward_at_default_config(self):
        # 300 windows cross one PREDICT_CHUNK boundary.
        model = init_model(NetConfig(), seed=6)
        x = standardize(np.random.default_rng(9).standard_normal((300, 32, 250)))
        assert len(x) > PREDICT_CHUNK
        labels, probs = predict_batch(model, x)
        single = np.concatenate([forward(model, x[i : i + 1]) for i in range(len(x))])
        np.testing.assert_allclose(probs, single, rtol=1e-12)
        assert np.array_equal(labels, single.argmax(axis=1))

    @pytest.mark.parametrize("b", [2, 7, 64, 300])
    def test_rows_equal_single_window_forward_bit_for_bit(self, b):
        # The online engine scores whatever windows a received burst
        # completes in one batch, in float32, so a row must not depend on
        # the batch. Weights 4x the init scale make the output feel the
        # last bits.
        model = init_model(NetConfig(), seed=6)
        for stage in (model.stage_a, model.stage_b):
            for value in stage.params.values():
                value *= 4.0
        x = standardize(np.random.default_rng(b).standard_normal((b, 32, 250)))
        for dtype in (np.float64, np.float32):
            _, probs = predict_batch(model, x.astype(dtype))
            assert probs.dtype == dtype
            for row, window in zip(probs, x.astype(dtype)):
                assert np.array_equal(row, forward(model, window[None])[0])

    def test_dimension_mismatch(self, tiny_model):
        with pytest.raises(ValueError, match="shape"):
            forward(tiny_model, np.zeros((1, 3, 21)))

    @pytest.mark.parametrize("dtype", [np.int64, np.float16])
    def test_input_not_float32_or_float64_rejected(self, tiny_model, dtype):
        # Parameters are cast to the input's dtype, so an integer input
        # would truncate them.
        x = np.ones((1, 3, 20), dtype)
        for call in (lambda: forward(tiny_model, x), lambda: predict_occluded(tiny_model, x),
                     lambda: backward(tiny_model, x, np.array([0]))):
            with pytest.raises(ValueError, match="dtype"):
                call()

    def test_window_without_batch_axis_rejected(self, tiny_model):
        # One window is a 1-row batch; a bare (C, T) window is a shape error.
        window = np.zeros((3, 20))
        with pytest.raises(ValueError, match="shape"):
            forward(tiny_model, window)
        with pytest.raises(ValueError, match="shape"):
            backward(tiny_model, window, np.array([0]))


@pytest.fixture(scope="module")
def saturated_default():
    # Weights 4x the init scale make the output feel the last bits; 300
    # windows cross one PREDICT_CHUNK boundary.
    model = init_model(NetConfig(), seed=6)
    for stage in (model.stage_a, model.stage_b):
        for value in stage.params.values():
            value *= 4.0
    x = standardize(np.random.default_rng(5).standard_normal((300, 32, 250)))
    assert len(x) > PREDICT_CHUNK
    return model, x


class TestPredictOccluded:
    def test_matches_forward_of_zeroed_copy(self, saturated_default):
        model, x = saturated_default
        occluded = predict_occluded(model, x)
        assert occluded.shape == (32, 300, 3)
        for c, probs in enumerate(occluded):
            zeroed = x.copy()
            zeroed[:, c] = 0.0
            labels, expected = predict_batch(model, zeroed)
            np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-12)
            assert np.array_equal(probs.argmax(axis=1), labels)

    def test_float32_matches_forward_of_zeroed_copy(self, saturated_default):
        # The analyses score in float32. The tolerance, 64 float32 eps, is
        # 16 times the largest difference measured on this model.
        model, x = saturated_default
        x = x.astype(np.float32)
        occluded = predict_occluded(model, x)
        assert occluded.dtype == np.float32
        for c, probs in enumerate(occluded):
            zeroed = x.copy()
            zeroed[:, c] = 0.0
            labels, expected = predict_batch(model, zeroed)
            np.testing.assert_allclose(probs, expected, rtol=0,
                                       atol=64 * np.finfo(np.float32).eps)
            assert np.array_equal(probs.argmax(axis=1), labels)

    def test_flat_channel_keeps_baseline_bit_for_bit(self, tiny_model):
        x = np.random.default_rng(2).standard_normal((7, 3, 20))
        x[:, 1] = 4.0
        x = standardize(x)
        assert not x[:, 1].any()
        _, baseline = predict_batch(tiny_model, x)
        assert np.array_equal(predict_occluded(tiny_model, x)[1], baseline)

    def test_read_only_input_left_unchanged(self, tiny_model):
        x = standardize(np.random.default_rng(3).standard_normal((6, 3, 20)))
        before = x.copy()
        x.setflags(write=False)
        probs = predict_occluded(tiny_model, x)
        assert np.array_equal(x, before)
        np.testing.assert_allclose(probs.sum(axis=2), 1.0)

    def test_dimension_mismatch(self, tiny_model):
        with pytest.raises(ValueError, match="shape"):
            predict_occluded(tiny_model, np.zeros((2, 3, 21)))

    def test_front_end_runs_once_per_stage_and_chunk(self, saturated_default, monkeypatch):
        model, x = saturated_default
        front_ends = []

        def counting(w, h):
            if h.shape[1] == model.config.n_channels:
                front_ends.append(h.shape[0])
            return _lag_conv(w, h)

        monkeypatch.setattr("eegtd.model._lag_conv", counting)
        predict_occluded(model, x)
        # Two stages, chunks of 256 and 44 windows.
        assert sorted(front_ends) == [44, 44, 256, 256]


class TestDropout:
    def test_seeded_dropout_reproducible(self, tiny_input):
        model = init_model(
            NetConfig(n_channels=3, window_len=20, temporal_filters=2,
                      deep_filters=(2,), kernel_len=3, pool_len=2,
                      dropout_rate=0.4, dense_hidden=4),
            seed=11,
        )
        labels = np.array([1])

        def step(rng=None):
            grads, loss, _ = backward(model, tiny_input, labels, rng)
            return loss, np.concatenate([g.ravel() for s in grads.values() for g in s.values()])

        loss_a, grads_a = step(np.random.default_rng(5))
        loss_b, grads_b = step(np.random.default_rng(5))
        assert loss_a == loss_b and np.array_equal(grads_a, grads_b)
        # passing an rng is what switches dropout on
        loss_c, grads_c = step()
        assert loss_c != loss_a and not np.allclose(grads_a, grads_c)


class TestSerialization:
    def test_round_trip_bit_exact(self, tiny_model):
        buf = io.BytesIO()
        save_model(tiny_model, buf)
        buf.seek(0)
        back = load_model(buf)
        assert back.config == tiny_model.config
        for sn in ("stage_a", "stage_b"):
            for name, arr in getattr(tiny_model, sn).params.items():
                assert np.array_equal(arr, getattr(back, sn).params[name])

    def test_wrong_magic(self):
        with pytest.raises(FormatError, match="magic"):
            load_model(io.BytesIO(b"XMDL" + b"\x00" * 100))

    def test_truncated_blob(self, tiny_model):
        buf = io.BytesIO()
        save_model(tiny_model, buf)
        data = buf.getvalue()[:-9]
        with pytest.raises(FormatError, match="truncated"):
            load_model(io.BytesIO(data))

    def test_trailing_bytes_rejected(self, tiny_model):
        buf = io.BytesIO()
        save_model(tiny_model, buf)
        with pytest.raises(FormatError, match="trailing"):
            load_model(io.BytesIO(buf.getvalue() + bytes(1000)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stage, name", [("stage_a", "w_time"), ("stage_b", "b_out")])
    def test_non_finite_parameter_rejected(self, tiny_model, stage, name, value):
        buf = io.BytesIO()
        save_model(tiny_model, buf)
        buf.seek(0)
        broken = load_model(buf)
        getattr(broken, stage).params[name].flat[0] = value
        buf = io.BytesIO()
        save_model(broken, buf)
        buf.seek(0)
        with pytest.raises(FormatError, match=f"non-finite value in {stage}.{name}"):
            load_model(buf)

    def test_parameter_counts_closed_form(self):
        shapes = dict(param_shapes(TINY))
        assert shapes["w_time"] == (2, 3)
        assert shapes["w_spat"] == (2, 2, 3)
        assert shapes["w_conv0"] == (2, 2, 3)
        # window 20 -> conv 18 -> pool 9 -> conv 7 -> pool 3; flat = 2*3
        assert shapes["w_dense"] == (6, 4)
        assert shapes["w_out"] == (4, 2)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-3])
    def test_rate_not_finite_and_non_negative_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            TrainConfig(**{field: value})


def test_no_module_imports_a_private_name_of_another():
    # Each eegtd module uses only the public names of the others.
    private = []
    for path in sorted(Path(eegtd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "eegtd"
            ):
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


class TestNetConfigValidation:
    def test_collapsing_window_rejected(self):
        with pytest.raises(ValueError):
            NetConfig(window_len=12, kernel_len=10, pool_len=3, deep_filters=(8, 16))

    def test_bad_dropout(self):
        with pytest.raises(ValueError):
            NetConfig(dropout_rate=1.0)

    def test_default_dimensions(self):
        cfg = NetConfig()
        assert cfg.time_steps() == [80, 23, 4]
        assert cfg.feature_len() == 64
