import hashlib
import os

import numpy as np
import pytest
from scipy.stats import spearmanr

from longisurv.cli import COHORT_PRESETS
from longisurv.errors import ConfigError, DataError
from longisurv.synthcohort import (CohortConfig, EyeAnatomy, stream, generate_cohort,
                                   split_patients, pad_and_batch, render_image,
                                   summary_stats, save_dataset, load_dataset,
                                   CONFIG_NAME, EYES_NAME, IMAGES_NAME)


def small_cfg(**over):
    base = dict(n_patients=60, seed=11)
    base.update(over)
    return CohortConfig(**base)


class TestGeneration:
    def test_deterministic_regeneration(self):
        a = generate_cohort(small_cfg())
        b = generate_cohort(small_cfg())
        assert len(a) == len(b) == 120
        for x, y in zip(a, b):
            assert x.eye_id == y.eye_id and x.outcome == y.outcome
            np.testing.assert_array_equal(x.visit_months, y.visit_months)
            np.testing.assert_array_equal(x.images, y.images)
            np.testing.assert_array_equal(x.true_hazard, y.true_hazard)

    def test_visits_precede_outcome_and_are_increasing(self):
        for e in generate_cohort(small_cfg()):
            assert e.n_visits >= 1
            assert np.all(np.diff(e.visit_months) > 0)
            last_step = int(e.visit_months[-1]) // small_cfg().step_months
            assert last_step < e.outcome.event_step

    def test_zero_hazard_means_all_censored(self):
        cfg = small_cfg(hazard_slope=0.0, hazard_intercept=-40.0,
                        target_censoring=1.0)
        eyes = generate_cohort(cfg)
        assert all(e.outcome.censored for e in eyes)
        assert summary_stats(eyes, cfg.grid)["n_events"] == 0

    def test_certain_first_step_event(self):
        cfg = small_cfg(hazard_slope=0.0, hazard_intercept=40.0,
                        target_censoring=None)
        for e in generate_cohort(cfg):
            assert e.outcome == e.outcome.__class__(event_step=1, censored=False)
            np.testing.assert_array_equal(e.visit_months, [0])

    def test_unsatisfiable_censoring_target(self):
        cfg = small_cfg(hazard_slope=0.0, hazard_intercept=-40.0,
                        target_censoring=0.5)
        with pytest.raises(ConfigError, match="unsatisfiable"):
            generate_cohort(cfg)

    def test_censoring_near_target(self):
        cfg = CohortConfig(n_patients=1200, seed=5)
        stats = summary_stats(generate_cohort(cfg), cfg.grid)
        assert 85.8 <= stats["censored_pct"] <= 89.8

    def test_faster_drift_means_earlier_events(self):
        eyes = generate_cohort(CohortConfig(n_patients=500, seed=9))
        drift = np.array([e.drift for e in eyes])
        cens = np.array([e.outcome.censored for e in eyes])
        step = np.array([e.outcome.event_step for e in eyes])
        rho = spearmanr(drift[~cens], step[~cens]).statistic
        assert rho < 0

    def test_images_reflect_severity(self):
        eyes = generate_cohort(small_cfg(seed=3))
        sev = np.concatenate([e.severities for e in eyes])
        lum = np.concatenate([e.images.mean(axis=(1, 2, 3)) for e in eyes])
        lo, hi = lum[sev < 1.0], lum[sev > 4.0]
        assert len(lo) and len(hi) and hi.mean() > lo.mean() + 0.05


def cohort_digest(eyes) -> str:
    """sha256 over every eye's id, outcome, drift and arrays (dtype, shape, bytes)."""
    h = hashlib.sha256()
    for e in eyes:
        h.update(e.eye_id.encode())
        h.update(repr((e.outcome.event_step, e.outcome.censored, e.drift)).encode())
        for a in (e.visit_months, e.severities, e.true_hazard, e.images):
            h.update(a.dtype.str.encode())
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestGoldenBytes:
    """The simulator's output bytes, pinned by digests of the scalar-loop
    simulator (numpy 2.4, x86-64). A change here changes every cohort, so it
    has to say so and re-pin them."""

    @pytest.mark.parametrize("over, digest", [
        (dict(n_patients=40, seed=11),
         "17b183afd56a663b0aa1c949618b16f82d3688fa4331040c697e158bd2362f85"),
        (dict(COHORT_PRESETS["ohts_like"], n_patients=40, seed=5),
         "23f2fcf45c73d8cebef218f374fd9af32295fb659cde31580c96a38e63936e20"),
        (dict(n_patients=30, seed=3, image_channels=3, image_size=16),
         "4220976b9444682a0e58c421a646445efc1cd6e54672fd000fd3e2270c2060a8"),
        (dict(n_patients=60, seed=9),
         "e2d25e37c028594362ce06950cf4f8841de28774d51255464e03271498985d5d"),
    ], ids=["areds_like", "ohts_like", "three_channels_16px", "no_images"])
    def test_cohort_digest(self, over, digest):
        assert cohort_digest(generate_cohort(CohortConfig(**over))) == digest

    @pytest.mark.parametrize("channels", [1, 3])
    def test_array_render_equals_stacked_scalar_renders(self, channels):
        cfg = CohortConfig(image_channels=channels)
        anatomy = EyeAnatomy(stream(5, 3, 0, 0), cfg)
        # from no lit blob through every blob lit
        severities = np.array([0.0, 0.3, 1.7, 2.25, 4.0, 6.5, 9.0, 14.0]) + anatomy.offset
        batch = render_image(anatomy, severities, cfg)
        stacked = np.stack([render_image(anatomy, float(s), cfg) for s in severities])
        assert batch.shape == (8, channels, 32, 32) and batch.dtype == np.float32
        assert batch.tobytes() == stacked.tobytes()
        assert render_image(anatomy, severities[:1], cfg).tobytes() == stacked[:1].tobytes()


class TestSplit:
    def test_ten_patients_split_7_1_2(self):
        eyes = generate_cohort(small_cfg(n_patients=10))
        tr, va, te = split_patients(eyes, seed=0)
        counts = [len({e.patient_id for e in part}) for part in (tr, va, te)]
        assert counts == [7, 1, 2]

    def test_same_seed_same_split(self):
        eyes = generate_cohort(small_cfg())
        a = split_patients(eyes, seed=4)
        b = split_patients(eyes, seed=4)
        for pa, pb in zip(a, b):
            assert [e.eye_id for e in pa] == [e.eye_id for e in pb]

    def test_patient_disjointness_and_eye_pairing(self):
        eyes = generate_cohort(small_cfg(seed=8))
        parts = split_patients(eyes, seed=1)
        patient_sets = [{e.patient_id for e in part} for part in parts]
        assert not (patient_sets[0] & patient_sets[1])
        assert not (patient_sets[0] & patient_sets[2])
        assert not (patient_sets[1] & patient_sets[2])
        for part, pats in zip(parts, patient_sets):
            assert len(part) == 2 * len(pats)        # both eyes travel together

    def test_too_few_patients(self):
        eyes = generate_cohort(small_cfg(n_patients=2))
        with pytest.raises(ConfigError):
            split_patients(eyes)



class TestPadding:
    def test_masks_and_months(self):
        eyes = generate_cohort(small_cfg(seed=2))[:8]
        l = max(e.n_visits for e in eyes) + 2
        batch = pad_and_batch(eyes, l)
        batch.validate()
        for i, e in enumerate(eyes):
            assert batch.valid[i, :e.n_visits].all()
            assert not batch.valid[i, e.n_visits:].any()
            np.testing.assert_array_equal(
                batch.visit_months[i, :e.n_visits], e.visit_months)
            np.testing.assert_array_equal(batch.images[i, e.n_visits:], 0.0)

    def test_full_length_mask(self):
        eyes = generate_cohort(small_cfg(seed=2))[:4]
        l = max(e.n_visits for e in eyes)
        batch = pad_and_batch(eyes, l)
        assert batch.valid[np.argmax([e.n_visits for e in eyes])].all()

    def test_too_long_sequence(self):
        eyes = generate_cohort(small_cfg(seed=2))[:4]
        with pytest.raises(DataError):
            pad_and_batch(eyes, max(e.n_visits for e in eyes) - 1)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg(n_patients=12)
        eyes = generate_cohort(cfg)
        save_dataset(str(tmp_path / "ds"), eyes, cfg)
        loaded, cfg2 = load_dataset(str(tmp_path / "ds"))
        assert cfg2 == cfg
        assert [e.eye_id for e in loaded] == [e.eye_id for e in eyes]
        assert sorted(os.listdir(tmp_path / "ds")) == sorted([CONFIG_NAME, EYES_NAME, IMAGES_NAME])
        stack = np.load(tmp_path / "ds" / IMAGES_NAME)
        assert stack.shape == (sum(e.n_visits for e in eyes), 1, 32, 32)
        start = 0                     # an eye's images sit at its cumulative visit count
        for e, le in zip(eyes, loaded):
            assert (le.patient_id, le.outcome) == (e.patient_id, e.outcome)
            np.testing.assert_array_equal(le.visit_months, e.visit_months)
            assert le.visit_months.dtype == e.visit_months.dtype
            assert le.images.dtype == np.float32 and le.images.tobytes() == e.images.tobytes()
            assert le.images.tobytes() == stack[start:start + e.n_visits].tobytes()
            start += e.n_visits
            assert le.images.base is not None and le.images.base is loaded[0].images.base
            assert le.true_hazard.dtype == e.true_hazard.dtype
            assert le.true_hazard.tobytes() == e.true_hazard.tobytes()
            assert le.severities.dtype == e.severities.dtype
            assert le.severities.tobytes() == e.severities.tobytes()
            assert le.drift == e.drift

    def test_byte_identical_rewrite(self, tmp_path):
        cfg = small_cfg(n_patients=6)
        eyes = generate_cohort(cfg)
        save_dataset(str(tmp_path / "a"), eyes, cfg)
        save_dataset(str(tmp_path / "b"), eyes, cfg)
        for name in (EYES_NAME, CONFIG_NAME, IMAGES_NAME):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_eye_ids_sort_in_generation_order(self):
        eyes = generate_cohort(small_cfg(n_patients=3, eyes_per_patient=11))
        ids = [e.eye_id for e in eyes]
        assert ids == sorted(set(ids)) and ids[:2] == ["p0_e00", "p0_e01"]

    def test_eyes_out_of_id_order_are_not_saved(self, tmp_path):
        cfg = small_cfg(n_patients=3)
        eyes = generate_cohort(cfg)
        with pytest.raises(DataError, match="eye id order"):
            save_dataset(str(tmp_path), eyes[::-1], cfg)
        assert not os.path.exists(tmp_path / EYES_NAME)

    def test_missing_eyes_table(self, tmp_path):
        with pytest.raises(DataError, match=EYES_NAME):
            load_dataset(str(tmp_path))

    def test_bad_row_names_its_row(self, tmp_path):
        cfg = small_cfg(n_patients=3)
        save_dataset(str(tmp_path), generate_cohort(cfg), cfg)
        lines = (tmp_path / EYES_NAME).read_text().splitlines()
        fields = lines[2].split("\t")
        lines[2] = "\t".join(fields[:4] + ["2"] + fields[5:])     # the second eye's flag
        (tmp_path / EYES_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{EYES_NAME}: row 3: censored flag '2'"):
            load_dataset(str(tmp_path))

    def test_first_bad_row_names_its_first_failed_check(self, tmp_path):
        """Rows 3 and 4 both fail; row 3 fails on its visit months before its flag."""
        cfg = small_cfg(n_patients=3)
        save_dataset(str(tmp_path), generate_cohort(cfg), cfg)
        lines = (tmp_path / EYES_NAME).read_text().splitlines()
        fields = lines[3].split("\t")
        lines[3] = "\t".join(fields[:7] + ["nan;" + fields[7].split(";", 1)[1]])
        fields = lines[2].split("\t")
        lines[2] = "\t".join(fields[:2] + ["3"] + fields[3:4] + ["2"] + fields[5:])
        (tmp_path / EYES_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{EYES_NAME}: row 3: visit months 3 are not"):
            load_dataset(str(tmp_path))
