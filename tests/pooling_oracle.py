"""Reference pooling: one Python pass per output pixel.

The straightforward per-window loop ``Pooling`` once ran in production,
kept as the oracle its vectorised offset loop is tested against.  Each
window is reduced with ``argmax``/``mean`` on its own, so the tie, NaN
and clipped-window rules are whatever those NumPy calls do.
"""

from typing import Optional, Tuple

import numpy as np

from repro.caffe.layers.base import pool_output_dim


def _geometry(shape, kernel, stride, pad, ceil, global_pool):
    _, _, h, w = shape
    if global_pool:
        # One window over the whole (h, w) plane.
        return 1, 1, (h, w), 1, 0
    out_h = pool_output_dim(h, kernel, stride, pad, ceil=ceil)
    out_w = pool_output_dim(w, kernel, stride, pad, ceil=ceil)
    return out_h, out_w, (kernel, kernel), stride, pad


def reference_forward(
    bottom: np.ndarray,
    method: str,
    kernel: int = 2,
    stride: int = 2,
    pad: int = 0,
    ceil: bool = True,
    global_pool: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(top, argmax)``; ``argmax`` (max pooling only) holds flat indices
    into the input padded by ``pad`` on each side."""
    n, c, h, w = bottom.shape
    out_h, out_w, (kh, kw), stride, pad = _geometry(
        bottom.shape, kernel, stride, pad, ceil, global_pool
    )
    fill = -np.inf if method == "max" else 0.0
    if pad > 0:
        padded = np.full(
            (n, c, h + 2 * pad, w + 2 * pad), fill, dtype=bottom.dtype
        )
        padded[:, :, pad:pad + h, pad:pad + w] = bottom
    else:
        padded = bottom

    top = np.empty((n, c, out_h, out_w), dtype=bottom.dtype)
    argmax = None
    if method == "max":
        argmax = np.empty((n, c, out_h, out_w), dtype=np.int64)
    ph, pw = padded.shape[2], padded.shape[3]
    for oy in range(out_h):
        y0 = oy * stride
        y1 = min(y0 + kh, ph)
        for ox in range(out_w):
            x0 = ox * stride
            x1 = min(x0 + kw, pw)
            flat = padded[:, :, y0:y1, x0:x1].reshape(n, c, -1)
            if method == "max":
                idx = flat.argmax(axis=2)
                top[:, :, oy, ox] = np.take_along_axis(
                    flat, idx[:, :, None], axis=2
                )[:, :, 0]
                win_w = x1 - x0
                local_y, local_x = idx // win_w, idx % win_w
                argmax[:, :, oy, ox] = (y0 + local_y) * pw + (x0 + local_x)
            else:
                top[:, :, oy, ox] = flat.mean(axis=2)
    return top, argmax


def reference_backward(
    top_diff: np.ndarray,
    bottom_shape: tuple,
    method: str,
    argmax: Optional[np.ndarray] = None,
    kernel: int = 2,
    stride: int = 2,
    pad: int = 0,
    ceil: bool = True,
    global_pool: bool = False,
) -> np.ndarray:
    """Bottom diff; max pooling scatters ``top_diff`` through ``argmax``."""
    n, c, h, w = bottom_shape
    out_h, out_w, (kh, kw), stride, pad = _geometry(
        bottom_shape, kernel, stride, pad, ceil, global_pool
    )
    ph, pw = h + 2 * pad, w + 2 * pad
    padded_diff = np.zeros((n, c, ph * pw), dtype=np.float32)
    if method == "max":
        flat_idx = argmax.reshape(n * c, -1)
        rows = np.repeat(np.arange(n * c)[:, None], flat_idx.shape[1], axis=1)
        np.add.at(
            padded_diff.reshape(n * c, ph * pw),
            (rows, flat_idx),
            top_diff.reshape(n * c, -1),
        )
    padded_diff_2d = padded_diff.reshape(n, c, ph, pw)
    if method == "ave":
        for oy in range(out_h):
            y0 = oy * stride
            y1 = min(y0 + kh, ph)
            for ox in range(out_w):
                x0 = ox * stride
                x1 = min(x0 + kw, pw)
                area = (y1 - y0) * (x1 - x0)
                padded_diff_2d[:, :, y0:y1, x0:x1] += (
                    top_diff[:, :, oy:oy + 1, ox:ox + 1] / area
                )
    return padded_diff_2d[:, :, pad:pad + h, pad:pad + w]
