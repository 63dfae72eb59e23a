"""``Pooling`` against the per-pixel reference loop in pooling_oracle.py.

Max pooling must agree bit for bit: the output (sign of zero and NaN
included), the ``_argmax`` routing and the bottom diff.  Average pooling
sums the same windows in a different order, so it agrees to rounding.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.caffe.layers import LayerError, Pooling

from .pooling_oracle import reference_backward, reference_forward

EPS32 = float(np.finfo(np.float32).eps)

#: Repeated specials make ties (``-0.0`` against ``0.0`` too), windows
#: that are all ``-inf``, and windows with one or several NaNs.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -np.inf, np.nan]),
    st.floats(-4.0, 4.0, width=32),
)


@st.composite
def pooling_cases(draw):
    kernel = draw(st.integers(1, 4))
    config = dict(
        method=draw(st.sampled_from(["max", "ave"])),
        kernel=kernel,
        stride=draw(st.integers(1, 3)),
        pad=draw(st.integers(0, kernel - 1)),
        ceil=draw(st.booleans()),
        global_pool=draw(st.booleans()),
    )
    shape = (
        draw(st.integers(1, 2)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 9)),
        draw(st.integers(1, 9)),
    )
    layer = Pooling("p", **config)
    try:
        (top_shape,) = layer.setup([shape], None)
    except LayerError:
        assume(False)
    bottom = draw(arrays(np.float32, shape, elements=VALUES))
    top_diff = draw(arrays(
        np.float32, top_shape, elements=st.floats(-4.0, 4.0, width=32)
    ))
    return layer, config, bottom, top_diff


def assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def summation_bound(values, terms):
    """Largest gap two orderings of a float32 sum of ``terms`` of these
    values can show: each is within ``(terms - 1) * eps/2 * sum|x|``."""
    finite = np.abs(values[np.isfinite(values)])
    largest = float(finite.max()) if finite.size else 0.0
    return terms * terms * EPS32 * largest


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(pooling_cases())
def test_matches_per_pixel_reference(case):
    layer, config, bottom, top_diff = case
    (top,) = layer.forward([bottom], train=True)
    argmax = None if layer._argmax is None else layer._argmax.copy()
    (diff,) = layer.backward([top_diff], [bottom], [top])
    ref_top, ref_argmax = reference_forward(bottom, **config)
    ref_diff = reference_backward(
        top_diff, bottom.shape, argmax=ref_argmax, **config
    )

    if config["method"] == "max":
        assert_bits_equal(top, ref_top)
        np.testing.assert_array_equal(argmax, ref_argmax)
        assert_bits_equal(diff, ref_diff)
        return
    if config["global_pool"]:
        window = bottom.shape[2] * bottom.shape[3]
    else:
        window = config["kernel"] ** 2
    np.testing.assert_allclose(
        top, ref_top, rtol=1e-6, atol=summation_bound(bottom, window)
    )
    np.testing.assert_allclose(
        diff, ref_diff, rtol=1e-6, atol=summation_bound(top_diff, window)
    )


def _max_pool(values, rows=1, **config):
    x = np.asarray(values, dtype=np.float32).reshape(1, 1, rows, -1)
    layer = Pooling("p", method="max", **config)
    layer.setup([x.shape], None)
    (top,) = layer.forward([x], train=True)
    return top.ravel(), layer._argmax.ravel()


class TestMaxPoolingRules:
    def test_tie_routes_to_first_and_keeps_its_sign(self):
        top, argmax = _max_pool([-1.0, -0.0, 0.0, -0.0], kernel=1, stride=1,
                                global_pool=True)
        assert argmax.tolist() == [1]
        assert np.signbit(top[0])

    def test_nan_routes_to_first_nan(self):
        top, argmax = _max_pool([1.0, np.nan, 5.0, np.nan, 2.0, 3.0],
                                kernel=1, stride=1, global_pool=True)
        assert np.isnan(top[0]) and argmax.tolist() == [1]

    def test_windowed_nan_and_ties(self):
        x = np.asarray([[3.0, np.nan, 3.0, 1.0],
                        [np.nan, 3.0, 0.0, -0.0]], dtype=np.float32)
        layer = Pooling("p", method="max", kernel=2, stride=2)
        layer.setup([(1, 1, 2, 4)], None)
        (top,) = layer.forward([x.reshape(1, 1, 2, 4)], train=True)
        assert np.isnan(top[0, 0, 0, 0]) and top[0, 0, 0, 1] == 3.0
        # Row-major window order: the NaN at (0, 1), the 3.0 at (0, 2).
        assert layer._argmax.ravel().tolist() == [1, 2]

    def test_clipped_ceil_window_never_routes_outside(self):
        # 6 wide, 3/s2, ceil: the last window covers columns 4..6 of
        # which only 4 and 5 exist; an all -inf input still routes it to
        # column 4, its first position.
        top, argmax = _max_pool([-np.inf] * 18, rows=3, kernel=3, stride=2)
        assert argmax.tolist() == [0, 2, 4]
        assert np.all(top == -np.inf)

    def test_window_starting_past_the_input_is_rejected(self):
        layer = Pooling("p", method="max", kernel=1, stride=3)
        with pytest.raises(LayerError, match="starts past"):
            layer.setup([(1, 1, 5, 5)], None)


def test_ave_ceil_divides_by_clipped_area():
    # 6 wide, 3/s2, ceil: windows cover columns 0..2, 2..4 and 4..5.
    x = np.repeat(np.arange(6, dtype=np.float32).reshape(1, 1, 1, 6), 3,
                  axis=2)
    layer = Pooling("p", method="ave", kernel=3, stride=2)
    layer.setup([x.shape], None)
    (top,) = layer.forward([x], train=True)
    np.testing.assert_allclose(top[0, 0, 0], [1.0, 3.0, 4.5])
