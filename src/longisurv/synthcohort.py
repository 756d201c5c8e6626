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
censoring rate hits a configurable target.

Generation is deterministic from (config, seed). Stream ``stream(seed, *key)``
draws, in order: key ``(0, p)`` the patient's drift factor; ``(1, p, e)`` the
eye's drift factor, initial severity, ``j_max`` step noises and ``j_max`` event
uniforms, then its administrative end; ``(2, p, e)`` the dropout step (when
dropout is on), then visit gaps up to the outcome step; ``(3, p, e)`` blob
centres, radii, gain and offset; ``(4, p, e)`` the observation noise, one
(V, C, H, W) normal, which equals V per-visit draws. Streams are drawn eye by
eye, and the arithmetic runs in one numpy pass per eye, or per grid step over
all eyes, with a scalar loop's per-element float operations. Digests in
``tests/test_synthcohort.py`` pin the bytes.

On disk a dataset is three files: ``cohort.json`` (the config), ``eyes.tsv``,
one row per eye in eye id order (patient, eye, ``;``-joined visit months, rising
on the step grid before the outcome step, that step, censoring flag 0 or 1, and
the hidden drift, per-visit severities and ``j_max`` hazards), and ``images.npy``,
the eyes' (visits, C, H, W) float32 images in row order, viewed by loaded eyes.

This is the data layer: it imports nothing above ``survival``, and
``pad_and_batch`` builds the ``SequenceBatch`` the models read.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import JsonConfig
from .errors import ConfigError, DataError, read_table, reading, write_table
from .survival import EventOutcome, TimeGrid

EYES_NAME = "eyes.tsv"
EYES_HEADER = ("patient_id", "eye_id", "visit_months", "event_step", "censored", "drift",
               "severities", "true_hazard")
CONFIG_NAME = "cohort.json"
IMAGES_NAME = "images.npy"
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)     # train, validation and test shares of the patients


@dataclass(frozen=True)
class CohortConfig(JsonConfig):
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
    gain_range: tuple[float, ...] = (0.6, 1.4)
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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(step_months=self.step_months, j_max=self.j_max)


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


def stream(seed: int, *key: int) -> np.random.Generator:
    """The package's one seeded generator: PCG64 on the ``SeedSequence`` of (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _simulate_latents(cfg: CohortConfig):
    """Severity paths, hazards, candidate event steps and admin ends per eye."""
    draws = []                              # each eye's stream, in draw order
    for p in range(cfg.n_patients):
        zp = float(stream(cfg.seed, 0, p).standard_normal())
        for e in range(cfg.eyes_per_patient):
            rng = stream(cfg.seed, 1, p, e)
            draws.append((zp, rng.standard_normal(), rng.standard_normal(),
                          rng.normal(0.0, cfg.severity_noise_sd, size=cfg.j_max),
                          rng.random(cfg.j_max),
                          rng.integers(cfg.min_admin_steps, cfg.j_max + 1)))
    z_patient, z_eye, z_init, steps_noise, u, admin_end = map(np.array, zip(*draws))

    rho = cfg.patient_drift_corr
    drifts = cfg.drift_mean + cfg.drift_sd * (
        np.sqrt(rho) * z_patient + np.sqrt(1.0 - rho) * z_eye)
    severities = np.zeros((len(draws), cfg.j_max + 1))
    # np.where(s > 0, s, 0) is Python's max(0.0, s), signed zeros included
    s = cfg.severity_init_mean + cfg.severity_init_sd * z_init
    severities[:, 0] = s = np.where(s > 0.0, s, 0.0)
    for j in range(1, cfg.j_max + 1):
        s = s + drifts + steps_noise[:, j - 1]
        severities[:, j] = s = np.where(s > 0.0, s, 0.0)
    hazards = 1.0 / (1.0 + np.exp(-(cfg.hazard_slope * severities[:, 1:] + cfg.hazard_intercept)))
    hits = u < hazards
    event_candidate = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, -1)
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
        grid = np.arange(cfg.image_size)[None, :]
        centers = rng.uniform(3, cfg.image_size - 3, size=(cfg.max_blobs, 2))
        radii = rng.uniform(1.5, 3.2, size=cfg.max_blobs)
        d2 = (((grid - centers[:, :1]) ** 2)[:, :, None]
              + ((grid - centers[:, 1:]) ** 2)[:, None, :])
        # scalar powers: an array square can differ from pow(r, 2) in the last bit
        two_r2 = 2.0 * np.array([r ** 2 for r in radii])
        self.basis = np.exp(-d2 / two_r2[:, None, None]).astype(np.float32)
        self.gain = float(rng.uniform(*cfg.gain_range))
        self.offset = float(rng.normal(0.0, cfg.anatomy_offset_sd))


def render_image(anatomy: EyeAnatomy, severity: float | np.ndarray,
                 cfg: CohortConfig) -> np.ndarray:
    """Noise-free blob fields, channels first: (C, H, W) for one severity
    level, (V, C, H, W) for a 1-D array of V levels.

    The eye's activation offset shifts which blobs light up at a given
    severity, so absolute severity is not identifiable from one frame.
    """
    k = np.arange(cfg.max_blobs)
    thresholds = 8.0 * k / cfg.max_blobs
    apparent = np.asarray(severity, dtype=float)[..., None] - anatomy.offset
    weights = np.clip(0.9 * (apparent - thresholds), 0.0, 1.0) * 0.6 * anatomy.gain
    # blob axis summed in order; weights fall with k, and the blobs past the
    # last lit one would only add exact zeros
    n = int((weights > 0.0).sum(axis=-1).max())
    lit = weights[..., :n, None, None] * anatomy.basis[:n]
    img = np.clip(0.08 + lit.sum(axis=-3), 0.0, 1.0)
    return np.repeat(img[..., None, :, :], cfg.image_channels, axis=-3).astype(np.float32)


def generate_cohort(cfg: CohortConfig) -> list[EyeRecord]:
    """Simulate a full cohort; deterministic for a given (config, seed)."""
    drifts, severities, hazards, event_candidate, admin_end = _simulate_latents(cfg)
    p_drop = _tune_dropout(cfg, event_candidate, admin_end)

    eyes = []
    pad, eye_pad = len(str(cfg.n_patients)), len(str(cfg.eyes_per_patient - 1))
    gaps = (cfg.min_gap_steps, cfg.max_gap_steps + 1)
    for p in range(cfg.n_patients):
        for e in range(cfg.eyes_per_patient):
            i = p * cfg.eyes_per_patient + e
            rng = stream(cfg.seed, 2, p, e)
            dropout = int(rng.geometric(p_drop)) if p_drop > 0.0 else cfg.j_max + 1
            end = min(int(admin_end[i]), dropout)
            tau_e = int(event_candidate[i])
            event = 0 < tau_e <= end
            outcome = EventOutcome(tau_e if event else min(end, cfg.j_max), not event)

            # visits strictly before the outcome step; enrollment at month 0
            steps = [0]
            while (nxt := steps[-1] + int(rng.integers(*gaps))) < outcome.event_step:
                steps.append(nxt)
            visit_steps = np.array(steps, dtype=int)
            sev = severities[i][visit_steps]

            anatomy = EyeAnatomy(stream(cfg.seed, 3, p, e), cfg)
            clean = render_image(anatomy, sev, cfg)
            noisy = stream(cfg.seed, 4, p, e).normal(0, cfg.obs_noise_sd, clean.shape)
            noisy += clean
            images = np.clip(noisy, 0.0, 1.0, out=noisy).astype(np.float32)

            pid = f"p{p:0{pad}d}"
            eyes.append(EyeRecord(
                patient_id=pid, eye_id=f"{pid}_e{e:0{eye_pad}d}", images=images, outcome=outcome,
                visit_months=visit_steps * cfg.step_months, drift=float(drifts[i]),
                severities=sev.astype(float), true_hazard=hazards[i].astype(float)))
    return eyes


def split_patients(eyes: list[EyeRecord], seed: int = 0) -> tuple[list, list, list]:
    """Patient-level split by ``SPLIT_FRACTIONS``; both eyes of a patient travel together."""
    patients = sorted({e.patient_id for e in eyes})
    n = len(patients)
    n_train = int(round(SPLIT_FRACTIONS[0] * n))
    n_val = int(round(SPLIT_FRACTIONS[1] * n))
    if n_train < 1 or n_val < 1 or n - n_train - n_val < 1:
        raise ConfigError(f"too few patients ({n}) for split {SPLIT_FRACTIONS}")
    order = stream(seed).permutation(n)
    groups = (set(patients[i] for i in order[:n_train]),
              set(patients[i] for i in order[n_train:n_train + n_val]),
              set(patients[i] for i in order[n_train + n_val:]))
    return tuple([e for e in eyes if e.patient_id in g] for g in groups)


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


def pad_and_batch(eyes: list[EyeRecord], l: int) -> SequenceBatch:
    """Zero-pad visit sequences to length l with prefix validity masks."""
    if not eyes:
        raise DataError("cannot batch an empty list of eyes")
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

def _fmt_list(values) -> str:
    return ";".join(repr(float(v)) for v in values)


def _parse_list(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(";")]) if text else np.zeros(0)


def save_dataset(path: str, eyes: list[EyeRecord], cfg: CohortConfig) -> None:
    if any(a.eye_id >= b.eye_id for a, b in zip(eyes, eyes[1:])):
        raise DataError("a dataset's eyes must be in increasing eye id order")
    os.makedirs(path, exist_ok=True)
    np.save(os.path.join(path, IMAGES_NAME),
            np.concatenate([e.images for e in eyes], dtype=np.float32))
    write_table(os.path.join(path, EYES_NAME), EYES_HEADER, (
        (e.patient_id, e.eye_id, ";".join(str(int(m)) for m in e.visit_months),
         e.outcome.event_step, int(e.outcome.censored), e.drift, _fmt_list(e.severities),
         _fmt_list(e.true_hazard)) for e in eyes))
    with open(os.path.join(path, CONFIG_NAME), "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str) -> tuple[list[EyeRecord], CohortConfig]:
    """Read a dataset directory; a missing or malformed file is a DataError naming it."""
    eyes_path, cfg_path, img_path = (os.path.join(path, name)
                                     for name in (EYES_NAME, CONFIG_NAME, IMAGES_NAME))
    rows = read_table(eyes_path, EYES_HEADER)
    with reading(cfg_path), open(cfg_path) as fh:
        cfg = CohortConfig.from_dict(json.load(fh), "cohort")
    eyes = []
    with reading(eyes_path):
        for k, (pid, eid, months, step, cens, drift, sev, hz) in enumerate(rows, start=2):
            try:
                if eyes and eid <= eyes[-1].eye_id:
                    raise ValueError(f"eye id {eid} does not follow {eyes[-1].eye_id}")
                visits = np.array([int(m) for m in months.split(";")])
                outcome = EventOutcome(int(step), cens == "1")
                eyes.append(eye := EyeRecord(pid, eid, visits, None, outcome, float(drift),
                                             _parse_list(sev), _parse_list(hz)))
                if (visits[0] < 0 or np.any(np.diff(visits) <= 0)
                        or np.any(visits % cfg.step_months)
                        or visits[-1] >= outcome.event_step * cfg.step_months):
                    raise ValueError(f"visit months {months} are not increasing multiples of "
                                     f"{cfg.step_months} before outcome step {step}")
                if cens not in ("0", "1"):
                    raise ValueError(f"censored flag {cens!r} is not 0 or 1")
                outcome.validate(cfg.grid)
                if (len(eye.severities), len(eye.true_hazard)) != (len(visits), cfg.j_max):
                    raise ValueError(f"{len(eye.severities)} severities for {len(visits)} visits"
                                     f" and {len(eye.true_hazard)} hazards for j_max {cfg.j_max}")
                if not 0.0 <= eye.true_hazard.min() <= eye.true_hazard.max() <= 1.0:
                    raise ValueError("a true hazard is NaN or outside [0, 1]")
            except (ValueError, DataError) as ex:
                raise ValueError(f"row {k}: {ex}")
    with reading(img_path):
        images = np.load(img_path, allow_pickle=False)
        if not isinstance(images, np.ndarray):
            raise ValueError("holds an .npz archive, not one .npy array")
        want = (sum(e.n_visits for e in eyes), cfg.image_channels, cfg.image_size,
                cfg.image_size)
        if images.dtype != np.float32 or images.shape != want:
            raise ValueError(f"holds {images.dtype} {images.shape}, not float32 {want}, "
                             f"one image per visit in {eyes_path}")
        if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
            raise ValueError("holds a pixel that is NaN or outside [0, 1], the images' range")
    start = 0                                 # each eye's images, in row order
    for e in eyes:
        e.images, start = images[start:start + e.n_visits], start + e.n_visits
    return eyes, cfg
