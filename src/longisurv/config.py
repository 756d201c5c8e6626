"""The one JSON form of every config dataclass: an object of its fields,
tuples written as lists. `--config`, presets, `cohort.json` and a checkpoint's
`config.json` are all read by ``from_dict``, which checks keys and JSON types
(elements of tuple fields included) before the class checks ranges."""
import dataclasses
import typing

from .errors import ConfigError

# JSON types each field annotation takes; a bool is never a number here
_JSON_TYPES = {int: int, float: (int, float), str: str, type(None): type(None)}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation; ``tuple[T, ...]`` takes a list of T."""
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(
            _fits(v, typing.get_args(hint)[0]) for v in value)
    types = tuple(_JSON_TYPES[t] for t in typing.get_args(hint) or (hint,))
    return not isinstance(value, bool) and isinstance(value, types)


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
            if not _fits(value, hints[key]):
                raise ConfigError(f"{where}.{key} has the wrong type: {value!r}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}
