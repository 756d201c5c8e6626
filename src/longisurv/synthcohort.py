"""Synthetic longitudinal cohort with known ground-truth hazards.

Each eye carries a hidden severity random walk with a per-eye drift rate
(correlated between the two eyes of a patient). The per-step event hazard
is a logistic link on current severity, so event times depend on both the
severity level and how fast it is drifting; the drift is only recoverable
from two or more visits, which is what makes the cohort separate a
longitudinal model from a single-image one. Visit images are blob fields
whose lit-blob count and intensity grow with severity, rendered through
per-eye anatomy: an intensity gain and a blob-activation offset that shift
how severe any single frame looks. One image therefore reads severity only
up to the eye's own offset, while changes across visits reveal the
progression rate regardless of it.

Censoring combines an administrative end of follow-up with a random
dropout whose per-step probability is tuned by bisection so the expected
censoring rate hits a configurable target. Generation is deterministic
from (config, seed): every random draw comes from a counter-based stream
keyed by patient and eye index.
"""
from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, asdict, field

import numpy as np

from .encoders import augment_images, standardize
from .errors import ConfigError, DataError
from .model import SequenceBatch
from .survival import EventOutcome, TimeGrid

IMAGE_MAGIC = 0x4D49534C  # "LSIM" little-endian

MANIFEST_NAME = "manifest.tsv"
TRUTH_NAME = "truth.tsv"
CONFIG_NAME = "cohort.json"
IMAGE_DIR = "imgs"


@dataclass(frozen=True)
class CohortConfig:
    n_patients: int = 1000
    eyes_per_patient: int = 2
    step_months: int = 6
    j_max: int = 27
    image_size: int = 32
    image_channels: int = 1
    # visit schedule: enrollment visit at step 0, then uniform gaps in steps
    min_gap_steps: int = 1
    max_gap_steps: int = 2
    # administrative follow-up end, uniform over [min_admin_steps, j_max]
    min_admin_steps: int = 2
    # expected censoring fraction to tune dropout towards; None disables dropout
    target_censoring: float | None = 0.878
    # latent severity dynamics
    severity_init_mean: float = 1.0
    severity_init_sd: float = 0.9
    drift_mean: float = 0.12
    drift_sd: float = 0.18
    patient_drift_corr: float = 0.5
    severity_noise_sd: float = 0.05
    # hazard link: sigmoid(slope * severity + intercept)
    hazard_slope: float = 2.5
    hazard_intercept: float = -13.0
    # imaging: per-eye gain and activation offset confound any single frame
    obs_noise_sd: float = 0.15
    gain_range: tuple = (0.6, 1.4)
    anatomy_offset_sd: float = 1.0
    max_blobs: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.n_patients < 1 or self.eyes_per_patient < 1:
            raise ConfigError("cohort needs at least one patient and eye")
        if not 1 <= self.min_gap_steps <= self.max_gap_steps:
            raise ConfigError("bad visit gap range")
        if self.target_censoring is not None and not 0.0 < self.target_censoring <= 1.0:
            raise ConfigError("target_censoring must be in (0, 1] or None")
        if not 1 <= self.min_admin_steps <= self.j_max:
            raise ConfigError("min_admin_steps outside grid")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(step_months=self.step_months, j_max=self.j_max)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "CohortConfig":
        d = dict(d)
        if "gain_range" in d:
            d["gain_range"] = tuple(d["gain_range"])
        return CohortConfig(**d)


@dataclass
class EyeRecord:
    patient_id: str
    eye_id: str
    visit_months: np.ndarray                  # strictly increasing, on the grid
    images: np.ndarray | None                 # (J, C, H, W) float32 in [0, 1]
    outcome: EventOutcome
    # hidden ground truth, consumed only by oracles and summaries
    drift: float = 0.0
    severities: np.ndarray = field(default_factory=lambda: np.zeros(0))
    true_hazard: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_visits(self) -> int:
        return len(self.visit_months)


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _simulate_latents(cfg: CohortConfig):
    """Severity paths, hazards, candidate event steps and admin ends per eye."""
    n_eyes = cfg.n_patients * cfg.eyes_per_patient
    rho = cfg.patient_drift_corr
    drifts = np.zeros(n_eyes)
    severities = np.zeros((n_eyes, cfg.j_max + 1))
    hazards = np.zeros((n_eyes, cfg.j_max))
    event_candidate = np.full(n_eyes, -1, dtype=int)
    admin_end = np.zeros(n_eyes, dtype=int)

    for p in range(cfg.n_patients):
        z_patient = float(_stream(cfg.seed, 0, p).standard_normal())
        for e in range(cfg.eyes_per_patient):
            i = p * cfg.eyes_per_patient + e
            rng = _stream(cfg.seed, 1, p, e)
            z_eye = rng.standard_normal()
            drift = cfg.drift_mean + cfg.drift_sd * (
                np.sqrt(rho) * z_patient + np.sqrt(1.0 - rho) * z_eye)
            s = max(0.0, cfg.severity_init_mean
                    + cfg.severity_init_sd * rng.standard_normal())
            path = np.empty(cfg.j_max + 1)
            path[0] = s
            steps_noise = rng.normal(0.0, cfg.severity_noise_sd, size=cfg.j_max)
            for j in range(1, cfg.j_max + 1):
                s = max(0.0, s + drift + steps_noise[j - 1])
                path[j] = s
            h = _sigmoid(cfg.hazard_slope * path[1:] + cfg.hazard_intercept)
            u = rng.random(cfg.j_max)
            hits = np.flatnonzero(u < h)
            drifts[i] = drift
            severities[i] = path
            hazards[i] = h
            event_candidate[i] = hits[0] + 1 if len(hits) else -1
            admin_end[i] = int(rng.integers(cfg.min_admin_steps, cfg.j_max + 1))
    return drifts, severities, hazards, event_candidate, admin_end


def _tune_dropout(cfg: CohortConfig, event_candidate, admin_end) -> float:
    """Per-step dropout probability hitting the target censoring in expectation."""
    if cfg.target_censoring is None:
        return 0.0
    tau = event_candidate.astype(float)
    observable = (event_candidate > 0) & (event_candidate <= admin_end)

    def censor_rate(p):
        keep = np.where(observable, (1.0 - p) ** (tau - 1.0), 0.0)
        return 1.0 - keep.mean()

    lo_rate = censor_rate(0.0)
    # dropout can only raise censoring; tolerate the 2-point calibration band
    # plus sampling noise on small cohorts
    t = cfg.target_censoring
    margin = max(0.02, 3.0 * np.sqrt(t * (1.0 - t) / max(1, len(tau))))
    if lo_rate > t + margin:
        raise ConfigError(
            f"censoring target {t:.3f} unsatisfiable: even with "
            f"no dropout the expected rate is {lo_rate:.3f}")
    if lo_rate >= cfg.target_censoring:
        return 0.0
    lo, hi = 0.0, 0.95
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if censor_rate(mid) < cfg.target_censoring:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class EyeAnatomy:
    """Per-eye rendering state: bump layout, intensity gain, activation offset."""

    def __init__(self, rng: np.random.Generator, cfg: CohortConfig):
        size = cfg.image_size
        yy, xx = np.mgrid[0:size, 0:size]
        centers = rng.uniform(3, size - 3, size=(cfg.max_blobs, 2))
        radii = rng.uniform(1.5, 3.2, size=cfg.max_blobs)
        self.basis = np.empty((cfg.max_blobs, size, size), dtype=np.float32)
        for k in range(cfg.max_blobs):
            d2 = (yy - centers[k, 0]) ** 2 + (xx - centers[k, 1]) ** 2
            self.basis[k] = np.exp(-d2 / (2.0 * radii[k] ** 2))
        self.gain = float(rng.uniform(*cfg.gain_range))
        self.offset = float(rng.normal(0.0, cfg.anatomy_offset_sd))


def render_image(anatomy: EyeAnatomy, severity: float,
                 cfg: CohortConfig) -> np.ndarray:
    """Noise-free blob field for one severity level, channels first.

    The eye's activation offset shifts which blobs light up at a given
    severity, so absolute severity is not identifiable from one frame.
    """
    k = np.arange(cfg.max_blobs)
    thresholds = 8.0 * k / cfg.max_blobs
    apparent = severity - anatomy.offset
    weights = np.clip(0.9 * (apparent - thresholds), 0.0, 1.0) * 0.6 * anatomy.gain
    img = np.clip(0.08 + (weights[:, None, None] * anatomy.basis).sum(axis=0),
                  0.0, 1.0)
    return np.repeat(img[None, :, :], cfg.image_channels, axis=0).astype(np.float32)


def generate_cohort(cfg: CohortConfig, render_images: bool = True) -> list[EyeRecord]:
    """Simulate a full cohort; deterministic for a given (config, seed)."""
    drifts, severities, hazards, event_candidate, admin_end = _simulate_latents(cfg)
    p_drop = _tune_dropout(cfg, event_candidate, admin_end)

    eyes = []
    pad = len(str(cfg.n_patients))
    for p in range(cfg.n_patients):
        for e in range(cfg.eyes_per_patient):
            i = p * cfg.eyes_per_patient + e
            rng = _stream(cfg.seed, 2, p, e)
            if p_drop > 0.0:
                dropout = int(rng.geometric(p_drop))
            else:
                dropout = cfg.j_max + 1
            end = min(int(admin_end[i]), dropout)
            tau_e = int(event_candidate[i])
            if 0 < tau_e <= end:
                outcome = EventOutcome(event_step=tau_e, censored=False)
            else:
                outcome = EventOutcome(event_step=min(end, cfg.j_max), censored=True)

            # visits strictly before the outcome step; enrollment at month 0
            steps = [0]
            while True:
                gap = int(rng.integers(cfg.min_gap_steps, cfg.max_gap_steps + 1))
                nxt = steps[-1] + gap
                if nxt >= outcome.event_step:
                    break
                steps.append(nxt)
            visit_steps = np.array(steps, dtype=int)
            sev = severities[i][visit_steps]

            images = None
            if render_images:
                anatomy = EyeAnatomy(_stream(cfg.seed, 3, p, e), cfg)
                noise_rng = _stream(cfg.seed, 4, p, e)
                images = np.empty((len(visit_steps), cfg.image_channels,
                                   cfg.image_size, cfg.image_size), dtype=np.float32)
                for v, s in enumerate(sev):
                    img = render_image(anatomy, float(s), cfg)
                    img = img + noise_rng.normal(0, cfg.obs_noise_sd, img.shape)
                    images[v] = np.clip(img, 0.0, 1.0)

            eyes.append(EyeRecord(
                patient_id=f"p{p:0{pad}d}",
                eye_id=f"p{p:0{pad}d}_e{e}",
                visit_months=visit_steps * cfg.step_months,
                images=images,
                outcome=outcome,
                drift=float(drifts[i]),
                severities=sev.astype(float),
                true_hazard=hazards[i].astype(float),
            ))
    return eyes


def split_patients(eyes: list[EyeRecord], fractions=(0.7, 0.1, 0.2),
                   seed: int = 0) -> tuple[list, list, list]:
    """Patient-level split; both eyes of a patient travel together."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    patients = sorted({e.patient_id for e in eyes})
    n = len(patients)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    if n_train < 1 or n_val < 1 or n - n_train - n_val < 1:
        raise ConfigError(f"too few patients ({n}) for split {fractions}")
    order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
    groups = (set(patients[i] for i in order[:n_train]),
              set(patients[i] for i in order[n_train:n_train + n_val]),
              set(patients[i] for i in order[n_train + n_val:]))
    return tuple([e for e in eyes if e.patient_id in g] for g in groups)


def pad_and_batch(eyes: list[EyeRecord], l: int) -> SequenceBatch:
    """Zero-pad visit sequences to length l with prefix validity masks."""
    if not eyes:
        raise DataError("cannot batch an empty list of eyes")
    if any(e.images is None for e in eyes):
        raise DataError("eyes were generated without images")
    longest = max(e.n_visits for e in eyes)
    if longest > l:
        raise DataError(f"sequence of {longest} visits exceeds padded length {l}")
    c, h, w = eyes[0].images.shape[1:]
    b = len(eyes)
    images = np.zeros((b, l, c, h, w), dtype=np.float32)
    months = np.zeros((b, l), dtype=float)
    valid = np.zeros((b, l), dtype=bool)
    for i, e in enumerate(eyes):
        j = e.n_visits
        images[i, :j] = e.images
        months[i, :j] = e.visit_months
        valid[i, :j] = True
    return SequenceBatch(images=images, visit_months=months, valid=valid,
                         outcomes=[e.outcome for e in eyes])


def prepare_batch(eyes: list[EyeRecord], l: int, pixel_mean, pixel_std, dtype,
                  rng: np.random.Generator | None = None) -> SequenceBatch:
    """Model-ready batch: pad to length l, augment when ``rng`` is given, standardize.

    Padding comes first, so augmentation draws for every padded slot too and
    a batch's draws depend only on its eye count and l.
    """
    batch = pad_and_batch(eyes, l)
    flat = batch.images.reshape(-1, *batch.images.shape[2:])
    if rng is not None:
        flat = augment_images(flat, rng)
    flat = standardize(flat, pixel_mean, pixel_std)
    batch.images = flat.reshape(batch.images.shape).astype(dtype, copy=False)
    return batch


def summary_stats(eyes: list[EyeRecord], grid: TimeGrid) -> dict:
    """Cohort description: visit counts, follow-up, censoring, time to event."""
    visits = np.array([e.n_visits for e in eyes], dtype=float)
    censored = np.array([e.outcome.censored for e in eyes])
    years_obs = np.array([grid.step_to_years(e.outcome.event_step) for e in eyes])
    years_event = years_obs[~censored]
    return {
        "n_patients": len({e.patient_id for e in eyes}),
        "n_eyes": len(eyes),
        "n_images": int(visits.sum()),
        "visits_mean": float(visits.mean()),
        "visits_sd": float(visits.std()),
        "years_observed_mean": float(years_obs.mean()),
        "years_observed_sd": float(years_obs.std()),
        "censored_pct": float(100.0 * censored.mean()),
        "n_events": int((~censored).sum()),
        "years_to_event_mean": float(years_event.mean()) if len(years_event) else 0.0,
        "years_to_event_sd": float(years_event.std()) if len(years_event) else 0.0,
    }


# ---------------------------------------------------------------------------
# on-disk dataset format
# ---------------------------------------------------------------------------

def _write_image(path: str, img: np.ndarray) -> None:
    c, h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IIII", IMAGE_MAGIC, h, w, c))
        fh.write(np.ascontiguousarray(img, dtype="<f4").tobytes())


def _read_image(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise DataError(f"truncated image header: {path}")
        magic, h, w, c = struct.unpack("<IIII", header)
        if magic != IMAGE_MAGIC:
            raise DataError(f"bad image magic in {path}")
        data = np.frombuffer(fh.read(4 * c * h * w), dtype="<f4")
        if data.size != c * h * w:
            raise DataError(f"truncated image data: {path}")
    return data.reshape(c, h, w).astype(np.float32)


def _fmt_list(values) -> str:
    return ";".join(repr(float(v)) for v in values)


def _parse_list(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(";")]) if text else np.zeros(0)


def save_dataset(path: str, eyes: list[EyeRecord], cfg: CohortConfig) -> None:
    os.makedirs(os.path.join(path, IMAGE_DIR), exist_ok=True)
    man = ["patient_id\teye_id\tvisit_month\timage_path\tevent_step\tcensored"]
    truth = ["patient_id\teye_id\tdrift\tseverities\ttrue_hazard"]
    for e in eyes:
        if e.images is None:
            raise DataError("cannot save a cohort generated without images")
        for v, month in enumerate(e.visit_months):
            rel = f"{IMAGE_DIR}/{e.eye_id}_m{int(month):04d}.img"
            _write_image(os.path.join(path, rel), e.images[v])
            man.append(f"{e.patient_id}\t{e.eye_id}\t{int(month)}\t{rel}"
                       f"\t{e.outcome.event_step}\t{int(e.outcome.censored)}")
        truth.append(f"{e.patient_id}\t{e.eye_id}\t{e.drift!r}"
                     f"\t{_fmt_list(e.severities)}\t{_fmt_list(e.true_hazard)}")
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        fh.write("\n".join(man) + "\n")
    with open(os.path.join(path, TRUTH_NAME), "w") as fh:
        fh.write("\n".join(truth) + "\n")
    with open(os.path.join(path, CONFIG_NAME), "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str, load_images: bool = True) -> tuple[list[EyeRecord], CohortConfig]:
    man_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(man_path):
        raise DataError(f"no dataset manifest under {path}")
    with open(os.path.join(path, CONFIG_NAME)) as fh:
        cfg = CohortConfig.from_dict(json.load(fh))
    truth = {}
    with open(os.path.join(path, TRUTH_NAME)) as fh:
        for line in list(fh)[1:]:
            pid, eid, drift, sev, hz = line.rstrip("\n").split("\t")
            truth[eid] = (float(drift), _parse_list(sev), _parse_list(hz))

    by_eye: dict[str, dict] = {}
    with open(man_path) as fh:
        for line in list(fh)[1:]:
            pid, eid, month, rel, step, cens = line.rstrip("\n").split("\t")
            rec = by_eye.setdefault(eid, {
                "patient_id": pid, "months": [], "paths": [],
                "outcome": EventOutcome(int(step), bool(int(cens)))})
            rec["months"].append(int(month))
            rec["paths"].append(rel)

    eyes = []
    for eid, rec in by_eye.items():
        order = np.argsort(rec["months"])
        months = np.array(rec["months"])[order]
        images = None
        if load_images:
            images = np.stack([_read_image(os.path.join(path, rec["paths"][i]))
                               for i in order])
        drift, sev, hz = truth[eid]
        eyes.append(EyeRecord(patient_id=rec["patient_id"], eye_id=eid,
                              visit_months=months, images=images,
                              outcome=rec["outcome"], drift=drift,
                              severities=sev, true_hazard=hz))
    return eyes, cfg
