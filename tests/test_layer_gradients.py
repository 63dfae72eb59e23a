"""Numerical gradient checks: every layer type inside a small net.

Dropout is exercised with ratio 0 (its mask resamples per forward pass,
which breaks finite differencing for any other ratio); its masking math is
covered behaviourally in test_layer_behavior.py.
"""

import numpy as np
import pytest

from repro.caffe.netspec import NetSpec

from .gradcheck import check_net_gradients

N, C, H, W = 3, 3, 8, 8


@pytest.fixture()
def inputs():
    rng = np.random.default_rng(11)
    return {
        "data": rng.standard_normal((N, C, H, W)).astype(np.float32),
        "label": rng.integers(0, 3, N),
    }


def base_spec():
    spec = NetSpec("gradcheck")
    spec.input("data", (N, C, H, W))
    spec.input("label", (N,))
    return spec


def finish(spec, top):
    top = spec.pool("gc_gp", top, method="ave", global_pool=True)
    logits = spec.fc("gc_fc", top, 3)
    spec.softmax_loss("gc_loss", logits, "label")
    return spec


class TestConvolutionGradients:
    def test_square_kernel(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 5, kernel=3, pad=1)
        check_net_gradients(finish(spec, top), inputs)

    def test_strided_no_pad(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=3, stride=2)
        check_net_gradients(finish(spec, top), inputs)

    def test_rectangular_kernels(self, inputs):
        spec = base_spec()
        top = spec.conv("c1", "data", 4, kernel=(1, 7), pad=(0, 3))
        top = spec.conv("c2", top, 4, kernel=(7, 1), pad=(3, 0))
        check_net_gradients(finish(spec, top), inputs)

    def test_no_bias(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=1, bias=False)
        check_net_gradients(finish(spec, top), inputs)

    def test_1x1(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 6, kernel=1)
        check_net_gradients(finish(spec, top), inputs)


class TestPoolingGradients:
    def test_max_pool_overlapping(self, inputs):
        # stride < kernel: the windows overlap (Inception's 3x3/s1 pool).
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=3, pad=1)
        top = spec.pool("p", top, method="max", kernel=3, stride=1, pad=1)
        check_net_gradients(finish(spec, top), inputs)

    def test_max_pool_strided(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=3, pad=1)
        top = spec.pool("p", top, method="max", kernel=2, stride=2)
        check_net_gradients(finish(spec, top), inputs)

    def test_ave_pool_padded(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=3, pad=1)
        top = spec.pool("p", top, method="ave", kernel=3, stride=2, pad=1)
        check_net_gradients(finish(spec, top), inputs)

    def test_ave_pool_ceil_clipped(self, inputs):
        # 8x8, 3x3/s2, no pad, ceil mode: 4x4 out, and the last row and
        # column of windows overhang the input by one, so they average
        # over a clipped 3x2, 2x3 or 2x2 area.
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=3, pad=1)
        top = spec.pool("p", top, method="ave", kernel=3, stride=2)
        check_net_gradients(finish(spec, top), inputs, samples_per_param=8)


class TestActivationGradients:
    @pytest.mark.parametrize("layer_type", ["Sigmoid", "TanH"])
    def test_smooth_activations(self, inputs, layer_type):
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=1)
        top = spec.add(layer_type, "act", [top])[0]
        check_net_gradients(finish(spec, top), inputs)

    def test_leaky_relu(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=1)
        top = spec.add("ReLU", "act", [top], negative_slope=0.1)[0]
        # ReLU's kink makes finite differences noisy near zero; loosen.
        check_net_gradients(finish(spec, top), inputs, tol=2e-2)


class TestNormalizationGradients:
    def test_batchnorm_affine(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=3, pad=1, bias=False)
        top = spec.add("BatchNorm", "bn", [top])[0]
        check_net_gradients(finish(spec, top), inputs, tol=1e-2)

    def test_batchnorm_plain(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=1)
        top = spec.add("BatchNorm", "bn", [top], affine=False)[0]
        check_net_gradients(finish(spec, top), inputs, tol=1e-2)

    def test_lrn(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 6, kernel=1)
        top = spec.add("LRN", "lrn", [top], local_size=5)[0]
        check_net_gradients(finish(spec, top), inputs, tol=1e-2)


class TestStructuralGradients:
    def test_concat(self, inputs):
        spec = base_spec()
        a = spec.conv("a", "data", 3, kernel=1)
        b = spec.conv("b", "data", 5, kernel=1)
        top = spec.concat("cat", [a, b])
        check_net_gradients(finish(spec, top), inputs)

    def test_eltwise_sum_with_coeffs(self, inputs):
        spec = base_spec()
        a = spec.conv("a", "data", 4, kernel=1)
        b = spec.conv("b", "data", 4, kernel=1)
        top = spec.add("Eltwise", "sum", [a, b], operation="sum",
                       coeffs=(0.3, 1.0))[0]
        check_net_gradients(finish(spec, top), inputs)

    def test_eltwise_max(self, inputs):
        spec = base_spec()
        a = spec.conv("a", "data", 4, kernel=1)
        b = spec.conv("b", "data", 4, kernel=1)
        top = spec.add("Eltwise", "mx", [a, b], operation="max")[0]
        check_net_gradients(finish(spec, top), inputs, tol=2e-2)

    def test_fanout_gradient_summing(self, inputs):
        # One conv output consumed by two branches: diffs must add.
        spec = base_spec()
        shared = spec.conv("shared", "data", 4, kernel=1)
        a = spec.conv("a", shared, 4, kernel=1)
        b = spec.conv("b", shared, 4, kernel=1)
        top = spec.add("Eltwise", "sum", [a, b], operation="sum")[0]
        check_net_gradients(finish(spec, top), inputs)

    def test_flatten_and_fc(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 2, kernel=3, stride=2)
        top = spec.add("Flatten", "flat", [top])[0]
        logits = spec.fc("fc", top, 3)
        spec.softmax_loss("loss", logits, "label")
        check_net_gradients(spec, inputs)

    def test_split(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=1)
        a, b = spec.add("Split", "split", [top], num_tops=2,
                        tops=["s1", "s2"])
        total = spec.add("Eltwise", "sum", [a, b], operation="sum")[0]
        check_net_gradients(finish(spec, total), inputs)

    def test_dropout_ratio_zero_is_identity(self, inputs):
        spec = base_spec()
        top = spec.conv("c", "data", 4, kernel=1)
        top = spec.add("Dropout", "drop", [top], ratio=0.0)[0]
        check_net_gradients(finish(spec, top), inputs)

    def test_auxiliary_loss_head(self, inputs):
        # Two losses (like Inception's aux heads) back-propagate jointly.
        spec = base_spec()
        trunk = spec.conv("trunk", "data", 4, kernel=1)
        main = spec.pool("gp1", trunk, method="ave", global_pool=True)
        logits = spec.fc("fc_main", main, 3)
        spec.softmax_loss("loss_main", logits, "label")
        aux = spec.conv("aux", trunk, 2, kernel=1)
        aux = spec.pool("gp2", aux, method="ave", global_pool=True)
        aux_logits = spec.fc("fc_aux", aux, 3)
        spec.softmax_loss("loss_aux", aux_logits, "label", loss_weight=0.3)
        check_net_gradients(spec, inputs)
