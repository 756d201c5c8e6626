import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings, strategies as st

from longisurv.errors import ConfigError
from longisurv.losses import LossConfig
from longisurv.model import ModelConfig
from longisurv.synthcohort import CohortConfig
from longisurv.trainer import TrainConfig

FLOATS = st.floats(-1e3, 1e3, allow_nan=False)
TUPLES = st.lists(st.floats(0.1, 20.0), min_size=1, max_size=5).map(tuple)
BY_TYPE = {int: st.integers(1, 40), float: FLOATS, tuple[float, ...]: TUPLES}

# fields whose class checks a range or a choice the type alone does not give
CONSTRAINED = {
    ModelConfig: {"kind": st.sampled_from(["longitudinal", "baseline"]),
                  "embed_dim": st.sampled_from([8, 16, 24, 48]),
                  "n_heads": st.sampled_from([1, 2, 4]),
                  "dropout": st.floats(0.0, 0.99),
                  "conv_widths": st.lists(st.integers(1, 16), min_size=1,
                                          max_size=4).map(tuple),
                  "dtype": st.sampled_from(["float32", "float64"])},
    CohortConfig: {"target_censoring": st.none() | st.floats(0.01, 1.0),
                   "min_gap_steps": st.integers(1, 3),
                   "max_gap_steps": st.integers(3, 6),
                   "min_admin_steps": st.integers(1, 27),
                   "j_max": st.integers(27, 40)},
    TrainConfig: {"lr": st.floats(1e-6, 1.0)},
    LossConfig: {"beta": st.floats(0.0, 1.0)},
}


def configs(cls):
    hints = typing.get_type_hints(cls)
    fields = {f.name: CONSTRAINED[cls][f.name] if f.name in CONSTRAINED[cls]
              else BY_TYPE[hints[f.name]] for f in dataclasses.fields(cls)}
    return st.builds(cls, **fields)


class TestJsonForm:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(list(CONSTRAINED)).flatmap(configs))
    def test_round_trip_through_json(self, cfg):
        back = type(cfg).from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg and hash(back) == hash(cfg)

    def test_lists_become_tuples(self):
        cfg = ModelConfig.from_dict({"conv_widths": [2, 4]})
        assert cfg.conv_widths == (2, 4) and cfg.to_dict()["conv_widths"] == [2, 4]

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            CohortConfig.from_dict([1, 2], "cohort")
