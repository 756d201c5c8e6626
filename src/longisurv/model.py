"""Forward passes for the two survival models and checkpoint persistence.

The longitudinal model embeds each visit image, adds a sinusoidal encoding
of absolute visit time, runs a causal self-attention encoder over the visit
sequence, and maps every position to a full discrete hazard curve plus a
step-ahead prediction of the next visit's image embedding. The baseline
shares the image encoder and survival head but sees a single image and no
temporal machinery.

Checkpoints are a directory of three files: a plain-text tensor manifest,
one little-endian binary blob, and a JSON config record. Round trips are
bit-exact.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict, field

import numpy as np

from . import diffgraph as dg
from .encoders import (conv_encoder_param_shapes, encode_images,
                       temporal_encode, relative_encode)
from .errors import ConfigError, DataError

KIND_LONGITUDINAL = "longitudinal"
KIND_BASELINE = "baseline"


@dataclass(frozen=True)
class ModelConfig:
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
    conv_widths: tuple = (8, 16, 32)
    dtype: str = "float64"

    def __post_init__(self):
        if self.kind not in (KIND_LONGITUDINAL, KIND_BASELINE):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.embed_dim % (2 * self.n_heads) != 0:
            raise ConfigError("embed_dim must be divisible by 2 * n_heads")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype}")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def to_dict(self) -> dict:
        d = asdict(self)
        d["conv_widths"] = list(self.conv_widths)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        d = dict(d)
        d["conv_widths"] = tuple(d.get("conv_widths", (8, 16, 32)))
        return ModelConfig(**d)


@dataclass
class SequenceBatch:
    """Right-padded visit sequences: images (B,l,C,H,W), months (B,l), prefix mask."""

    images: np.ndarray
    visit_months: np.ndarray
    valid: np.ndarray
    outcomes: list

    def validate(self) -> None:
        b, l = self.valid.shape
        if not np.all(self.valid[:, 0]):
            raise DataError("every sequence needs at least one visit")
        if l > 1 and np.any(self.valid[:, 1:] & ~self.valid[:, :-1]):
            raise DataError("validity mask is not a prefix mask")
        both = self.valid[:, 1:] & self.valid[:, :-1]
        if np.any(both & (np.diff(self.visit_months, axis=1) <= 0)):
            raise DataError("visit months must be strictly increasing")

    @property
    def lengths(self) -> np.ndarray:
        return self.valid.sum(axis=1).astype(int)


@dataclass
class ForwardPass:
    """Forward results: padded output arrays plus the graph nodes losses need."""

    hazards: np.ndarray                 # (B, l, J) zero-filled beyond validity
    step_ahead: np.ndarray | None       # (B, l, d)
    attention: list                     # per layer (B, heads, l, l)
    valid: np.ndarray
    node_hazards: dg.Node = None        # (B, l_trim, J)
    node_step: dg.Node = None           # (B, l_trim, d)
    node_eimg: dg.Node = None           # (B, l_trim, d)
    rel_gaps: np.ndarray = None         # (B, l_trim) months to next visit
    leaves: dict = field(default_factory=dict)
    l_trim: int = 0
    visit_steps: np.ndarray = None      # (B, l_trim) grid step of each visit


def init_params(cfg: ModelConfig, seed: int) -> dict:
    """Seeded parameter initialization; insertion order fixes checkpoint layout."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dt = cfg.np_dtype
    params: dict[str, np.ndarray] = {}

    def he(shape, fan_in):
        return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dt)

    def glorot(shape):
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, size=shape).astype(dt)

    for name, shape in conv_encoder_param_shapes(
            cfg.image_channels, cfg.image_size, cfg.embed_dim, cfg.conv_widths).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape, dtype=dt)
        elif len(shape) == 4:
            params[name] = he(shape, shape[1] * shape[2] * shape[3])
        else:
            params[name] = glorot(shape)

    d = cfg.embed_dim
    if cfg.kind == KIND_LONGITUDINAL:
        for layer in range(cfg.n_layers):
            p = f"tr{layer}"
            for proj in ("q", "k", "v", "o"):
                params[f"{p}.attn.{proj}.w"] = glorot((d, d))
                # no key bias: it adds the same q.b to every score of a query,
                # which the softmax cancels, so it would never get a gradient
                if proj != "k":
                    params[f"{p}.attn.{proj}.b"] = np.zeros(d, dtype=dt)
            params[f"{p}.norm1.g"] = np.ones(d, dtype=dt)
            params[f"{p}.norm1.b"] = np.zeros(d, dtype=dt)
            params[f"{p}.ff.w1"] = glorot((d, cfg.ff_mult * d))
            params[f"{p}.ff.b1"] = np.zeros(cfg.ff_mult * d, dtype=dt)
            params[f"{p}.ff.w2"] = glorot((cfg.ff_mult * d, d))
            params[f"{p}.ff.b2"] = np.zeros(d, dtype=dt)
            params[f"{p}.norm2.g"] = np.ones(d, dtype=dt)
            params[f"{p}.norm2.b"] = np.zeros(d, dtype=dt)

    # one Glorot column shared by every step: each step's logit starts as the
    # same linear risk score of the features plus its own bias. Independent
    # columns would give each step its own fixed random projection of the
    # features, which the few events at late steps never train away.
    params["head.surv.w"] = np.repeat(glorot((d, cfg.j_max))[:, :1], cfg.j_max, axis=1)
    # start below the cohort's per-step event rate: hazards must default low so
    # training raises them where events occur rather than carving down a high prior
    params["head.surv.b"] = np.full(cfg.j_max, -5.5, dtype=dt)
    if cfg.kind == KIND_LONGITUDINAL:
        params["head.step.w"] = glorot((d, d))
        params["head.step.b"] = np.zeros(d, dtype=dt)
    return params


def _transformer_layer(x: dg.Node, leaves: dict, prefix: str, cfg: ModelConfig,
                       additive_mask: np.ndarray, rng, train: bool):
    b, l, d = x.value.shape
    h = cfg.n_heads
    hd = d // h

    def heads(node):
        return dg.transpose(dg.reshape(node, (b, l, h, hd)), (0, 2, 1, 3))

    q = heads(dg.matmul(x, leaves[f"{prefix}.attn.q.w"]) + leaves[f"{prefix}.attn.q.b"])
    k = heads(dg.matmul(x, leaves[f"{prefix}.attn.k.w"]))
    v = heads(dg.matmul(x, leaves[f"{prefix}.attn.v.w"]) + leaves[f"{prefix}.attn.v.b"])
    scores = dg.scale(dg.matmul(q, dg.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
    attn = dg.masked_softmax(scores, additive_mask)
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
    computation, so outputs over valid positions are invariant (bit-exact)
    to the amount of right padding.
    """
    if cfg.kind != KIND_LONGITUDINAL:
        raise ConfigError("forward_sequences requires a longitudinal config")
    batch.validate()
    dt = cfg.np_dtype
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    leaves = {name: dg.param(arr, name) for name, arr in params.items()}

    b, l_full = batch.valid.shape
    lt = int(batch.lengths.max())
    valid = batch.valid[:, :lt]
    months = batch.visit_months[:, :lt]
    images = np.asarray(batch.images[:, :lt], dtype=dt)

    # encode only real visits; padded rows stay exactly zero
    flat_idx = np.flatnonzero(valid.reshape(-1))
    imgs_flat = images.reshape((-1,) + images.shape[2:])
    e_valid = encode_images(dg.constant(imgs_flat[flat_idx]), leaves,
                            n_blocks=len(cfg.conv_widths))
    e_img = dg.reshape(dg.scatter_rows(e_valid, flat_idx, b * lt),
                       (b, lt, cfg.embed_dim))

    e_time = temporal_encode(months, cfg.embed_dim).astype(dt)
    x = e_img + dg.constant(e_time)

    allowed = (np.tril(np.ones((lt, lt), dtype=bool))[None, :, :]
               & valid[:, None, :] & valid[:, :, None])
    additive = np.where(allowed, 0.0, dg.MASK_VALUE).astype(dt)[:, None, :, :]

    attn_maps = []
    for layer in range(cfg.n_layers):
        x, a = _transformer_layer(x, leaves, f"tr{layer}", cfg, additive, rng, train)
        attn_maps.append(a)

    hz = dg.sigmoid(dg.matmul(dg.dropout(x, cfg.dropout, rng, train),
                              leaves["head.surv.w"]) + leaves["head.surv.b"])

    # relative gap to the next visit; the final visit's gap is 0 and masked out
    gaps = np.zeros((b, lt), dtype=float)
    if lt > 1:
        nxt = valid[:, 1:]
        gaps[:, :-1] = np.where(nxt, np.diff(months, axis=1), 0.0)
    te_r = dg.constant(relative_encode(gaps, cfg.embed_dim).astype(dt))
    sp = dg.matmul(dg.dropout(x + te_r, cfg.dropout, rng, train),
                   leaves["head.step.w"]) + leaves["head.step.b"]

    hazards = np.zeros((b, l_full, cfg.j_max), dtype=dt)
    hazards[:, :lt] = hz.value
    step = np.zeros((b, l_full, cfg.embed_dim), dtype=dt)
    step[:, :lt] = sp.value
    attention = []
    for a in attn_maps:
        full = np.zeros((b, cfg.n_heads, l_full, l_full), dtype=dt)
        full[:, :, :lt, :lt] = a
        attention.append(full)

    return ForwardPass(hazards=hazards, step_ahead=step, attention=attention,
                       valid=batch.valid, node_hazards=hz, node_step=sp,
                       node_eimg=e_img, rel_gaps=gaps, leaves=leaves, l_trim=lt,
                       visit_steps=(months // cfg.step_months).astype(int))


def forward_single_images(params: dict, cfg: ModelConfig, images: np.ndarray,
                          train: bool = False, seed: int = 0) -> ForwardPass:
    """Baseline forward pass: one image per eye, encoder + survival head only."""
    if cfg.kind != KIND_BASELINE:
        raise ConfigError("forward_single_images requires a baseline config")
    dt = cfg.np_dtype
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    leaves = {name: dg.param(arr, name) for name, arr in params.items()}
    e = encode_images(dg.constant(np.asarray(images, dtype=dt)), leaves,
                      n_blocks=len(cfg.conv_widths))
    hz = dg.sigmoid(dg.matmul(dg.dropout(e, cfg.dropout, rng, train),
                              leaves["head.surv.w"]) + leaves["head.surv.b"])
    return ForwardPass(hazards=hz.value, step_ahead=None, attention=[],
                       valid=np.ones((images.shape[0], 1), dtype=bool),
                       node_hazards=hz, leaves=leaves, l_trim=1)


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

MANIFEST_NAME = "manifest.tsv"
BLOB_NAME = "params.bin"
RECORD_NAME = "config.json"

_DTYPE_TAGS = {"float64": "<f8", "float32": "<f4"}


def save_checkpoint(path: str, params: dict, record: dict) -> None:
    os.makedirs(path, exist_ok=True)
    offset = 0
    lines = ["name\tshape\tdtype\toffset"]
    blobs = []
    for name, arr in params.items():
        tag = _DTYPE_TAGS[arr.dtype.name]
        data = np.ascontiguousarray(arr).astype(tag, copy=False).tobytes()
        lines.append(f"{name}\t{','.join(map(str, arr.shape))}\t{arr.dtype.name}\t{offset}")
        blobs.append(data)
        offset += len(data)
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(path, BLOB_NAME), "wb") as fh:
        fh.write(b"".join(blobs))
    with open(os.path.join(path, RECORD_NAME), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple[dict, dict]:
    manifest = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest):
        raise DataError(f"not a checkpoint directory: {path}")
    with open(manifest) as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    with open(os.path.join(path, BLOB_NAME), "rb") as fh:
        blob = fh.read()
    params = {}
    for name, shape_s, dtype_name, offset_s in rows:
        shape = tuple(int(s) for s in shape_s.split(",")) if shape_s else ()
        tag = _DTYPE_TAGS[dtype_name]
        count = int(np.prod(shape)) if shape else 1
        start = int(offset_s)
        arr = np.frombuffer(blob, dtype=tag, count=count, offset=start)
        params[name] = arr.astype(dtype_name).reshape(shape).copy()
    with open(os.path.join(path, RECORD_NAME)) as fh:
        record = json.load(fh)
    return params, record
