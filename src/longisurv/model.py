"""Forward passes for the two survival models and checkpoint persistence.

The longitudinal model embeds each visit image, adds a sinusoidal encoding
of absolute visit time, runs a causal self-attention encoder over the visit
sequence, and maps every position to a full discrete hazard curve plus a
step-ahead prediction of the next visit's image embedding. The baseline
shares the image encoder and survival head but sees a single image and no
temporal machinery.

Checkpoints are a directory of two files: a JSON record whose "model"
section is read by ``ModelConfig.from_dict``, and one little-endian binary
blob of the tensors that section's ``param_shapes`` lists, in its order.
The record's "layout" names each tensor's shape, so a "model" section edited
to another architecture of the same size does not load. Round trips are
bit-exact.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import diffgraph as dg
from .config import JsonConfig
from .encoders import conv_encoder_param_shapes, encode_images, temporal_encode
from .errors import ConfigError, DataError, reading
from .synthcohort import SequenceBatch, stream

KIND_LONGITUDINAL = "longitudinal"
KIND_BASELINE = "baseline"


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    kind: str = KIND_LONGITUDINAL
    embed_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ff_mult: int = 4
    dropout: float = 0.25
    j_max: int = 27
    step_months: int = 6
    image_size: int = 32
    image_channels: int = 1
    conv_widths: tuple[int, ...] = (8, 16, 32)
    dtype: str = "float64"

    def __post_init__(self):
        if self.kind not in (KIND_LONGITUDINAL, KIND_BASELINE):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        ints = ("embed_dim", "n_layers", "n_heads", "ff_mult", "j_max", "step_months",
                "image_size", "image_channels")
        small = [k for k in ints if getattr(self, k) < 1]
        if min(self.conv_widths, default=0) < 1:
            small.append("conv_widths")
        if small:
            raise ConfigError(f"model {', '.join(small)} must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"model dropout must lie in [0, 1), got {self.dropout}")
        if self.embed_dim % (2 * self.n_heads) != 0:
            raise ConfigError("embed_dim must be divisible by 2 * n_heads")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype}")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


@dataclass
class ForwardPass:
    """Forward results plus the graph nodes losses need; positions end at the longest
    sequence. A baseline pass sets only the hazards, their node and the leaves."""

    hazards: np.ndarray                 # (B, l, J)
    step_ahead: np.ndarray = None       # (B, l, d)
    attention: list = None              # per layer (B, heads, l, l)
    valid: np.ndarray = None            # (B, l)
    node_hazards: dg.Node = None        # (B, l, J)
    node_step: dg.Node = None           # (B, l, d)
    node_eimg: dg.Node = None           # (B, l, d)
    leaves: dict = field(default_factory=dict)
    visit_steps: np.ndarray = None      # (B, l) grid step of each visit


def param_shapes(cfg: ModelConfig) -> dict:
    """Each tensor's shape, in checkpoint and initialization order: the image
    encoder, the transformer layers, then the heads."""
    d, f = cfg.embed_dim, cfg.ff_mult * cfg.embed_dim
    shapes = conv_encoder_param_shapes(cfg.image_channels, cfg.image_size, d,
                                       cfg.conv_widths)
    if cfg.kind == KIND_LONGITUDINAL:
        for layer in range(cfg.n_layers):
            p = f"tr{layer}"
            for proj in ("q", "k", "v", "o"):
                shapes[f"{p}.attn.{proj}.w"] = (d, d)
                # no key bias: it adds the same q.b to every score of a query,
                # which the softmax cancels, so it would never get a gradient
                if proj != "k":
                    shapes[f"{p}.attn.{proj}.b"] = (d,)
            shapes.update({f"{p}.norm1.g": (d,), f"{p}.norm1.b": (d,),
                           f"{p}.ff.w1": (d, f), f"{p}.ff.b1": (f,),
                           f"{p}.ff.w2": (f, d), f"{p}.ff.b2": (d,),
                           f"{p}.norm2.g": (d,), f"{p}.norm2.b": (d,)})
    shapes.update({"head.surv.w": (d, cfg.j_max), "head.surv.b": (cfg.j_max,)})
    if cfg.kind == KIND_LONGITUDINAL:
        shapes.update({"head.step.w": (d, d), "head.step.b": (d,)})
    return shapes


def init_params(cfg: ModelConfig, seed: int) -> dict:
    """Seeded initialization, drawn in ``param_shapes`` order: He for conv
    kernels, Glorot for matrices, ones for norm gains, zeros for other vectors."""
    rng = stream(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 4:
            value = rng.standard_normal(shape) * np.sqrt(2.0 / math.prod(shape[1:]))
        elif len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            value = rng.uniform(-limit, limit, size=shape)
        elif name == "head.surv.b":
            # start below the cohort's per-step event rate: hazards must default low so
            # training raises them where events occur rather than carving down a high prior
            value = np.full(shape, -5.5)
        else:
            value = np.full(shape, 1.0 if name.endswith(".g") else 0.0)
        params[name] = value.astype(cfg.np_dtype)
    # one Glorot column shared by every step: each step's logit starts as the
    # same linear risk score of the features plus its own bias. Independent
    # columns would give each step its own fixed random projection of the
    # features, which the few events at late steps never train away.
    params["head.surv.w"] = np.repeat(params["head.surv.w"][:, :1], cfg.j_max, axis=1)
    return params


def _transformer_layer(x: dg.Node, leaves: dict, prefix: str, cfg: ModelConfig,
                       mask: np.ndarray, rng, train: bool):
    b, l, d = x.value.shape
    h = cfg.n_heads
    hd = d // h

    def heads(node):
        return dg.transpose(dg.reshape(node, (b, l, h, hd)), (0, 2, 1, 3))

    q = heads(dg.matmul(x, leaves[f"{prefix}.attn.q.w"]) + leaves[f"{prefix}.attn.q.b"])
    k = heads(dg.matmul(x, leaves[f"{prefix}.attn.k.w"]))
    v = heads(dg.matmul(x, leaves[f"{prefix}.attn.v.w"]) + leaves[f"{prefix}.attn.v.b"])
    scores = dg.scale(dg.matmul(q, dg.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
    attn = dg.masked_softmax(scores, mask)
    ctx = dg.reshape(dg.transpose(dg.matmul(attn, v), (0, 2, 1, 3)), (b, l, d))
    proj = dg.matmul(ctx, leaves[f"{prefix}.attn.o.w"]) + leaves[f"{prefix}.attn.o.b"]
    x = dg.layer_norm(x + dg.dropout(proj, cfg.dropout, rng, train),
                      leaves[f"{prefix}.norm1.g"], leaves[f"{prefix}.norm1.b"])
    ff = dg.relu(dg.matmul(x, leaves[f"{prefix}.ff.w1"]) + leaves[f"{prefix}.ff.b1"])
    ff = dg.dropout(ff, cfg.dropout, rng, train)
    ff = dg.matmul(ff, leaves[f"{prefix}.ff.w2"]) + leaves[f"{prefix}.ff.b2"]
    ff = dg.dropout(ff, cfg.dropout, rng, train)
    x = dg.layer_norm(x + ff, leaves[f"{prefix}.norm2.g"], leaves[f"{prefix}.norm2.b"])
    return x, attn.value


def forward_sequences(params: dict, cfg: ModelConfig, batch: SequenceBatch,
                      train: bool = False, seed: int = 0) -> ForwardPass:
    """Longitudinal forward pass over a padded batch of visit sequences.

    Padding beyond the batch's longest sequence is trimmed before any
    computation, and the outputs end there too, so they are invariant
    (bit-exact) to the amount of right padding.
    """
    if cfg.kind != KIND_LONGITUDINAL:
        raise ConfigError("forward_sequences requires a longitudinal config")
    batch.validate()
    dt = cfg.np_dtype
    rng = stream(seed)
    leaves = {name: dg.param(arr, name) for name, arr in params.items()}

    b = len(batch.valid)
    lt = int(batch.lengths.max())
    valid = batch.valid[:, :lt]
    months = batch.visit_months[:, :lt]
    images = np.asarray(batch.images[:, :lt], dtype=dt)

    # encode only real visits; padded rows stay exactly zero
    flat_idx = np.flatnonzero(valid.reshape(-1))
    imgs_flat = images.reshape((-1,) + images.shape[2:])
    e_valid = encode_images(dg.constant(imgs_flat[flat_idx]), leaves)
    e_img = dg.reshape(dg.scatter_rows(e_valid, flat_idx, b * lt),
                       (b, lt, cfg.embed_dim))

    e_time = temporal_encode(months, cfg.embed_dim).astype(dt)
    x = e_img + dg.constant(e_time)

    allowed = (np.tril(np.ones((lt, lt), dtype=bool))[None, :, :]
               & valid[:, None, :] & valid[:, :, None])[:, None]   # one mask for all heads

    attn_maps = []
    for layer in range(cfg.n_layers):
        x, a = _transformer_layer(x, leaves, f"tr{layer}", cfg, allowed, rng, train)
        attn_maps.append(a)

    hz = dg.sigmoid(dg.matmul(dg.dropout(x, cfg.dropout, rng, train),
                              leaves["head.surv.w"]) + leaves["head.surv.b"])

    # relative gap to the next visit; the final visit's gap is 0 and masked out
    gaps = np.zeros((b, lt), dtype=float)
    if lt > 1:
        nxt = valid[:, 1:]
        gaps[:, :-1] = np.where(nxt, np.diff(months, axis=1), 0.0)
    te_r = dg.constant(temporal_encode(gaps, cfg.embed_dim).astype(dt))
    sp = dg.matmul(dg.dropout(x + te_r, cfg.dropout, rng, train),
                   leaves["head.step.w"]) + leaves["head.step.b"]

    return ForwardPass(hazards=hz.value, step_ahead=sp.value, attention=attn_maps,
                       valid=valid, node_hazards=hz, node_step=sp, node_eimg=e_img,
                       leaves=leaves, visit_steps=(months // cfg.step_months).astype(int))


def forward_single_images(params: dict, cfg: ModelConfig, images: np.ndarray,
                          train: bool = False, seed: int = 0) -> ForwardPass:
    """Baseline forward pass: one image per eye, encoder + survival head only."""
    if cfg.kind != KIND_BASELINE:
        raise ConfigError("forward_single_images requires a baseline config")
    dt = cfg.np_dtype
    rng = stream(seed)
    leaves = {name: dg.param(arr, name) for name, arr in params.items()}
    e = encode_images(dg.constant(np.asarray(images, dtype=dt)), leaves)
    hz = dg.sigmoid(dg.matmul(dg.dropout(e, cfg.dropout, rng, train),
                              leaves["head.surv.w"]) + leaves["head.surv.b"])
    return ForwardPass(hazards=hz.value, node_hazards=hz, leaves=leaves)


def extract_attention(fp: ForwardPass, eye_index: int) -> np.ndarray:
    """Per-visit attention scores for one eye, normalized so the top visit is 1.

    Uses the final layer, the query at the last valid position, averaged
    over heads and restricted to valid keys.
    """
    j_i = int(fp.valid[eye_index].sum())
    if j_i < 1:
        raise DataError("attention extraction needs at least one valid visit")
    last = fp.attention[-1][eye_index]          # (heads, l, l)
    row = last[:, j_i - 1, :j_i].mean(axis=0)
    return row / row.max()


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------

BLOB_NAME = "params.bin"
RECORD_NAME = "config.json"

_DTYPE_TAGS = {"float64": "<f8", "float32": "<f4"}


def save_checkpoint(path: str, params: dict, record: dict) -> None:
    """Write ``config.json`` and ``params.bin``, the little-endian tensors in the
    ``param_shapes`` order of the record's model config."""
    layout = param_shapes(ModelConfig.from_dict(record["model"], "model"))
    os.makedirs(path, exist_ok=True)
    tensors = (params[name] for name in layout)
    with open(os.path.join(path, BLOB_NAME), "wb") as fh:
        fh.write(b"".join(arr.astype(_DTYPE_TAGS[arr.dtype.name], copy=False).tobytes()
                          for arr in tensors))
    shapes = {name: list(shape) for name, shape in layout.items()}
    with open(os.path.join(path, RECORD_NAME), "w") as fh:
        json.dump({**record, "layout": shapes}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple[dict, dict]:
    """Read a checkpoint directory; a malformed file is a DataError naming it.

    The record needs pixel statistics (one number per image channel) and a
    layout, and ``params.bin`` exactly the values of the tensors ``param_shapes``
    gives its model config, which fixes their names, shapes, dtype and order.
    The layout must be that one; the returned record leaves it out.
    """
    blob_path, record_path = (os.path.join(path, name) for name in (BLOB_NAME, RECORD_NAME))
    if not os.path.isfile(blob_path):
        raise DataError(f"not a checkpoint directory: {path}")
    with reading(record_path), open(record_path) as fh:
        record = json.load(fh)
        cfg = ModelConfig.from_dict(record["model"], "model")
        written = record.pop("layout")
        for key in ("pixel_mean", "pixel_std"):
            values = record.get(key)
            if not (isinstance(values, list) and len(values) == cfg.image_channels
                    and all(type(v) in (int, float) and math.isfinite(v) for v in values)):
                raise ValueError(f"{key} needs one finite number per channel, got {values!r}")
        layout = param_shapes(cfg)
    sizes = [math.prod(shape) for shape in layout.values()]
    with reading(blob_path), open(blob_path, "rb") as fh:
        if written != {name: list(shape) for name, shape in layout.items()}:
            raise ValueError(f"written in another tensor layout than {RECORD_NAME}'s "
                             f"{cfg.kind} model")
        values = np.frombuffer(fh.read(), dtype=_DTYPE_TAGS[cfg.dtype])
        if len(values) != sum(sizes):
            raise ValueError(f"{len(values)} {cfg.dtype} values, the {cfg.kind} "
                             f"model has {sum(sizes)}")
        if not np.all(np.isfinite(values)):
            raise ValueError("holds NaN or infinite parameter values")
    chunks = np.split(values, np.cumsum(sizes)[:-1])
    params = {name: chunk.astype(cfg.np_dtype).reshape(shape)
              for (name, shape), chunk in zip(layout.items(), chunks)}
    return params, record
