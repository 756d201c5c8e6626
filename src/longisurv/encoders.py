"""Per-visit feature encoders and the pixel pipeline that feeds them.

One sinusoidal time code (for months since enrollment and for the gap to
the next visit) plus a small convolutional image encoder that maps each
visit image to a d-dimensional embedding. Visit times are
always in months here; year-to-month conversion happens at the CLI
boundary.

Images are augmented, standardized and cast here only, by ``model_images``
(over a padded sequence batch in ``prepare_batch``), so both model kinds see
pixels prepared the same way in training and in scoring.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import diffgraph as dg
from .errors import ConfigError, DataError
from .synthcohort import EyeRecord, SequenceBatch, pad_and_batch


def temporal_encode(v_months, d: int) -> np.ndarray:
    """Encode a time in months (a visit's, or the gap to the next visit) as a
    length-d row of interleaved sin/cos at geometric frequencies 10000^(2i/d)."""
    v = np.asarray(v_months, dtype=float)
    if np.any(v < 0):
        raise DataError("visit times must be nonnegative months")
    if d % 2 != 0 or d <= 0:
        raise ConfigError(f"encoding width must be a positive even number, got {d}")
    i = np.arange(d // 2, dtype=float)
    angles = v[..., None] / np.power(10000.0, 2.0 * i / d)
    out = np.empty(v.shape + (d,), dtype=float)
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


# ---------------------------------------------------------------------------
# convolutional image encoder
# ---------------------------------------------------------------------------

def conv_encoder_param_shapes(channels: int, image_size: int, d: int, widths) -> dict:
    """Parameter shapes: one conv block per width, each halving the image, then a linear map."""
    if image_size % 2 ** len(widths) != 0:
        raise ConfigError(f"{len(widths)} conv widths halve image size {image_size} too often")
    shapes = {}
    c_in = channels
    for i, c_out in enumerate(widths):
        shapes[f"enc.conv{i}.w"] = (c_out, c_in, 3, 3)
        shapes[f"enc.conv{i}.b"] = (c_out,)
        c_in = c_out
    flat = widths[-1] * (image_size >> len(widths)) ** 2
    shapes["enc.fc.w"] = (flat, d)
    shapes["enc.fc.b"] = (d,)
    return shapes


def encode_images(images: dg.Node, leaves: dict) -> dg.Node:
    """Map a batch of images (N, C, H, W) to embeddings (N, d), one conv block
    per ``enc.conv{i}.w`` leaf: a convolution, then ``avg_pool2``, which
    rectifies and pools in one graph node."""
    x = images
    n_blocks = sum(name.startswith("enc.conv") and name.endswith(".w") for name in leaves)
    for i in range(n_blocks):
        x = dg.conv2d(x, leaves[f"enc.conv{i}.w"], leaves[f"enc.conv{i}.b"], pad=1)
        x = dg.avg_pool2(x)
    n = x.value.shape[0]
    x = dg.reshape(x, (n, -1))
    return dg.matmul(x, leaves["enc.fc.w"]) + leaves["enc.fc.b"]


# ---------------------------------------------------------------------------
# pixel pipeline: augmentation, standardization, cast
# ---------------------------------------------------------------------------

AUG_NOISE_SIGMA = 0.02
AUG_MAX_SHIFT = 2


def augment_images(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Training-time augmentation: additive pixel noise and small translations.

    Each is applied independently with probability 0.5 per image; outputs
    are clipped back to [0, 1]. A shifted image is rolled by (dy, dx) before
    its noise is added, and the noise is one draw of shape (n_noise, C, H, W),
    which equals per-image draws in image order.
    """
    n, c, h, w = images.shape
    noise_on = rng.random(n) < 0.5
    shift_on = rng.random(n) < 0.5
    shifts = rng.integers(-AUG_MAX_SHIFT, AUG_MAX_SHIFT + 1, size=(n, 2)) * shift_on[:, None]
    # np.roll by (dy, dx) is the (h, w) window at (m - dy, m - dx) of a wrap-padded image
    m = AUG_MAX_SHIFT
    padded = np.pad(images, ((0, 0), (0, 0), (m, m), (m, m)), mode="wrap")
    windows = sliding_window_view(padded, (h, w), axis=(2, 3))
    out = windows[np.arange(n), :, m - shifts[:, 0], m - shifts[:, 1]]
    out[noise_on] += rng.normal(0.0, AUG_NOISE_SIGMA, size=(noise_on.sum(), c, h, w))
    return np.clip(out, 0.0, 1.0)


def pixel_stats(images: np.ndarray) -> tuple[list[float], list[float]]:
    """Channel-wise mean and std over a stack of training images (N, C, H, W)."""
    mean = images.mean(axis=(0, 2, 3))
    std = images.std(axis=(0, 2, 3))
    std = np.where(std < 1e-6, 1.0, std)
    return [float(m) for m in mean], [float(s) for s in std]


def standardize(images: np.ndarray, mean, std) -> np.ndarray:
    mean = np.asarray(mean, dtype=images.dtype).reshape(1, -1, 1, 1)
    std = np.asarray(std, dtype=images.dtype).reshape(1, -1, 1, 1)
    return (images - mean) / std


def model_images(images: np.ndarray, mean, std, dtype,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Model input from raw images: augment when ``rng`` is given, standardize, cast."""
    if rng is not None:
        images = augment_images(images, rng)
    return standardize(images, mean, std).astype(dtype, copy=False)


def prepare_batch(eyes: list[EyeRecord], l: int, pixel_mean, pixel_std, dtype,
                  rng: np.random.Generator | None = None) -> SequenceBatch:
    """Model-ready batch: pad to length l, then ``model_images`` over every slot.

    Padding comes first, so augmentation draws for every padded slot too and
    a batch's draws depend only on its eye count and l.
    """
    batch = pad_and_batch(eyes, l)
    flat = batch.images.reshape(-1, *batch.images.shape[2:])
    batch.images = model_images(flat, pixel_mean, pixel_std, dtype,
                                rng).reshape(batch.images.shape)
    return batch
