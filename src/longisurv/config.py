"""The one JSON form of every config dataclass: an object of its fields,
tuples written as lists. `--config`, presets, `cohort.json` and a checkpoint's
`config.json` are all read by ``from_dict``, which checks keys and JSON types
before the class checks ranges."""
import dataclasses
import typing

from .errors import ConfigError

# JSON types each field annotation takes; a bool is never a number here
_JSON_TYPES = {int: int, float: (int, float), str: str, tuple: (list, tuple),
               type(None): type(None)}


class JsonConfig:
    """Mixin for frozen config dataclasses: ``from_dict`` and ``to_dict``."""

    @classmethod
    def from_dict(cls, values: dict, where: str = "config"):
        """Build the class from a JSON object; a key it does not know or a
        value of the wrong JSON type is a ConfigError naming ``where.key``."""
        if not isinstance(values, dict):
            raise ConfigError(f"{where} config must be a JSON object, got {values!r}")
        unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown {where} config key(s): {', '.join(unknown)}")
        hints = typing.get_type_hints(cls)
        for key, value in values.items():
            types = tuple(_JSON_TYPES[t] for t in typing.get_args(hints[key]) or (hints[key],))
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{where}.{key} has the wrong type: {value!r}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}
