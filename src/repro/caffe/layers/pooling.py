"""Max and average pooling layers (Caffe ceil-mode geometry).

Both methods loop over the ``k * k`` kernel offsets, not the output
pixels: offset ``(ky, kx)`` of every window at once is one strided slice
of the padded input (the idiom ``col2im`` uses), so each pass is one
whole-tensor op and every temporary is the size of the output.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..blob import Shape
from .base import Layer, LayerError, pool_output_dim, register_layer


def _windows(
    padded: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> List[np.ndarray]:
    """One ``(N, C, out_h, out_w)`` view of ``padded`` per kernel offset.

    View ``ky * kernel + kx`` holds element ``(ky, kx)`` of every window,
    so the list runs over window positions in row-major order.
    """
    y_end, x_end = stride * out_h, stride * out_w
    return [
        padded[:, :, ky:ky + y_end:stride, kx:kx + x_end:stride]
        for ky in range(kernel)
        for kx in range(kernel)
    ]


@register_layer("Pooling")
class Pooling(Layer):
    """Spatial pooling over square windows.

    Args:
        name: Layer name.
        method: ``"max"`` or ``"ave"``.
        kernel: Window side; ignored when ``global_pool`` is set.
        stride: Window stride.
        pad: Zero padding (average pooling counts padding into the mean,
            matching Caffe).
        global_pool: Pool the whole spatial extent to 1x1.
        ceil: Caffe's ceil-mode output size (default); ``False`` uses
            floor ("valid") semantics as TensorFlow-style Inception stems
            expect, so stride-2 pools align with stride-2 valid convs.

    Rules the forward pass keeps (as ``argmax`` over each window would):

    * **Ties.** Max pooling routes each window to the first position
      holding its maximum, in row-major window order, and the output is
      that element bit for bit (of ``-0.0`` and ``0.0``, the first).
    * **NaN.** A window that contains NaN outputs NaN and routes to its
      first NaN.
    * **Ceil mode.** A last window that runs past the padded input is
      clipped to it: max pooling never picks a position outside it, and
      average pooling divides by the clipped area (Caffe's
      ``pool_size``), which counts padding but not the overhang.
    """

    def __init__(
        self,
        name: str,
        method: str = "max",
        kernel: int = 2,
        stride: int = 2,
        pad: int = 0,
        global_pool: bool = False,
        ceil: bool = True,
    ) -> None:
        super().__init__(name)
        if method not in ("max", "ave"):
            raise LayerError(f"unknown pooling method {method!r}")
        self.method = method
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.global_pool = global_pool
        self.ceil = ceil
        self._argmax: Optional[np.ndarray] = None

    def _geometry(self, shape: Shape) -> tuple:
        """``(out_h, out_w)`` of a windowed (not global) pool."""
        _, _, h, w = shape
        kernel, stride, pad = self.kernel, self.stride, self.pad
        out_h = pool_output_dim(h, kernel, stride, pad, ceil=self.ceil)
        out_w = pool_output_dim(w, kernel, stride, pad, ceil=self.ceil)
        if (out_h - 1) * stride >= h + 2 * pad or (
            (out_w - 1) * stride >= w + 2 * pad
        ):
            raise LayerError(
                f"{self.name}: the last {kernel}x{kernel}/s{stride} window "
                f"starts past the padded {h}x{w} input"
            )
        return out_h, out_w

    def _buffer_shape(self, h: int, w: int, out_h: int, out_w: int) -> tuple:
        """The input padded by ``pad`` on each side, and in ceil mode by
        enough more below and to the right that every window is whole."""
        reach = self.kernel - self.stride
        return (max(h + 2 * self.pad, self.stride * out_h + reach),
                max(w + 2 * self.pad, self.stride * out_w + reach))

    def _padded(
        self, bottom: np.ndarray, out_h: int, out_w: int, fill: float
    ) -> np.ndarray:
        """``bottom`` in a :meth:`_buffer_shape` buffer of ``fill``."""
        n, c, h, w = bottom.shape
        buf_h, buf_w = self._buffer_shape(h, w, out_h, out_w)
        if (buf_h, buf_w) == (h, w):
            return bottom
        padded = np.full((n, c, buf_h, buf_w), fill, dtype=bottom.dtype)
        pad = self.pad
        padded[:, :, pad:pad + h, pad:pad + w] = bottom
        return padded

    def _area(
        self, h: int, w: int, out_h: int, out_w: int, dtype: np.dtype
    ) -> np.ndarray:
        """Caffe's ``pool_size``: each window clipped to the padded input."""
        kernel, stride, pad = self.kernel, self.stride, self.pad
        starts_y = np.arange(out_h) * stride
        starts_x = np.arange(out_w) * stride
        rows = np.minimum(starts_y + kernel, h + 2 * pad) - starts_y
        cols = np.minimum(starts_x + kernel, w + 2 * pad) - starts_x
        return np.outer(rows, cols).astype(dtype)

    def setup(self, bottom_shapes, rng) -> List[Shape]:
        (shape,) = bottom_shapes
        n, c = shape[0], shape[1]
        if self.global_pool:
            return [(n, c, 1, 1)]
        out_h, out_w = self._geometry(shape)
        return [(n, c, out_h, out_w)]

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        n, c, h, w = bottom.shape
        if self.global_pool:
            flat = bottom.reshape(n, c, -1)
            if self.method == "ave":
                return [flat.mean(axis=2).reshape(n, c, 1, 1)]
            idx = flat.argmax(axis=2)[:, :, None]
            self._argmax = idx.reshape(n, c, 1, 1)
            top = np.take_along_axis(flat, idx, axis=2)
            return [top.reshape(n, c, 1, 1)]

        out_h, out_w = self._geometry(bottom.shape)
        if self.method == "ave":
            padded = self._padded(bottom, out_h, out_w, 0.0)
            windows = _windows(padded, self.kernel, self.stride, out_h, out_w)
            top = windows[0].copy()
            for window in windows[1:]:
                top += window
            top /= self._area(h, w, out_h, out_w, top.dtype)
            return [top]

        self._argmax = None  # free the last routing before allocating
        padded = self._padded(bottom, out_h, out_w, -np.inf)
        windows = _windows(padded, self.kernel, self.stride, out_h, out_w)
        top = windows[0].copy()
        for window in windows[1:]:
            np.maximum(top, window, out=top)
        # Route each window to the first offset equal to its max: offset
        # i bids ``count - i`` where it matches, and the highest bid wins.
        count = len(windows)
        bid = np.zeros(top.shape, dtype=np.min_scalar_type(count))
        score = np.empty_like(bid)
        hit = np.empty(top.shape, dtype=bool)
        has_nan = bool(np.isnan(top).any())
        for i, window in enumerate(windows):
            np.equal(window, top, out=hit)
            if has_nan:
                hit |= np.isnan(window)
            np.multiply(hit, bid.dtype.type(count - i), out=score)
            np.maximum(bid, score, out=bid)

        # Bid b names offset count - b (every window bids at least once).
        ky, kx = np.divmod(count - np.arange(count + 1), self.kernel)
        starts_y = np.arange(out_h)[:, None] * self.stride
        starts_x = np.arange(out_w) * self.stride

        def winners(width: int) -> np.ndarray:
            """Each window's winner as a flat index into one channel
            plane ``width`` wide."""
            at = np.take(ky * width + kx, bid)
            at += starts_y * width + starts_x
            return at

        # The output takes the winner's bits (the sign of a zero max is
        # the first zero's), gathered from the padded buffer into ``top``
        # (in range by construction, so ``clip`` only skips a buffer).
        buf_h, buf_w = padded.shape[2], padded.shape[3]
        planes = np.arange(n * c).reshape(n, c, 1, 1) * (buf_h * buf_w)
        at = winners(buf_w)
        at += planes
        padded.reshape(-1).take(at, out=top, mode="clip")
        # Backward scatters in the (h + 2 pad, w + 2 pad) frame; the
        # buffer is wider only when a ceil-mode window overhangs.
        if buf_w == w + 2 * self.pad:
            at -= planes
            self._argmax = at
        else:
            self._argmax = winners(w + 2 * self.pad)
        return [top]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        (bottom,) = bottoms
        n, c, h, w = bottom.shape
        pad = 0 if self.global_pool else self.pad

        if self.method == "max":
            if self._argmax is None:
                raise LayerError("backward before forward in max pooling")
            ph, pw = h + 2 * pad, w + 2 * pad
            padded_diff = np.zeros((n, c, ph * pw), dtype=np.float32)
            # Overlapping windows (stride < kernel) can route two output
            # cells to the same input position; np.add.at accumulates
            # duplicates correctly where put_along_axis would overwrite.
            flat_idx = self._argmax.reshape(n * c, -1)
            flat_top = top_diff.reshape(n * c, -1)
            flat_diff = padded_diff.reshape(n * c, ph * pw)
            rows = np.repeat(
                np.arange(n * c)[:, None], flat_idx.shape[1], axis=1
            )
            np.add.at(flat_diff, (rows, flat_idx), flat_top)
            padded_diff = padded_diff.reshape(n, c, ph, pw)
        elif self.global_pool:
            diff = np.zeros((n, c, h, w), dtype=np.float32)
            diff += top_diff / (h * w)
            return [diff]
        else:
            out_h, out_w = top_diff.shape[2], top_diff.shape[3]
            padded_diff = np.zeros(
                (n, c) + self._buffer_shape(h, w, out_h, out_w),
                dtype=np.float32,
            )
            scaled = top_diff / self._area(h, w, out_h, out_w, np.float32)
            for window in _windows(
                padded_diff, self.kernel, self.stride, out_h, out_w
            ):
                window += scaled
        self._argmax = None
        if padded_diff.shape[2:] != (h, w):
            return [padded_diff[:, :, pad:pad + h, pad:pad + w].copy()]
        return [padded_diff]
