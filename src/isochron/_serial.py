"""One JSON serializer for every record and report.

A class that subclasses Record gets to_json_dict() and config_dict(), and
declares as class attributes only how its JSON form differs from the
default:

_command   command name, written under "command" by both methods
_config    fields that form config_dict(); to_json_dict() writes every field
_omit      fields left out of to_json_dict()
_reshape   field -> function computing its JSON value
_spread    field -> key pattern: the field's JSON form is a dict whose
           entry k is written at top level as pattern.format(k.lower());
           by default a params field (a ModelParams) gives b, eps, n and tau
_extra     non-field attributes (properties) appended to to_json_dict()

Any other field is written under its own name in its plain() form.  Each
class's field plan is built once, on first use.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from functools import cache

_SCALARS = frozenset({bool, int, float, str, type(None)})


def plain(value):
    """Default JSON form: sequences become lists, dict keys strings, records
    their to_json_dict() and other dataclasses a dict of their init fields."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, Record):
        return value.to_json_dict()
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value) if f.init}
    return value


def rows(*keys):
    """Reshaper writing a sequence of tuples as dicts under keys."""
    return lambda seq: [dict(zip(keys, map(plain, row))) for row in seq]


@cache
def _plan(cls, config_only: bool):
    """(direct, spread) field plans: (name, convert) and (name, pattern)."""
    if config_only:
        names = cls._config
    else:
        names = [f.name for f in fields(cls) if f.name not in cls._omit]
        names += cls._extra
    direct = tuple((n, cls._reshape.get(n, plain)) for n in names if n not in cls._spread)
    spread = tuple((n, cls._spread[n]) for n in names if n in cls._spread)
    return direct, spread


class Record:
    """Mixin for frozen dataclasses: declarative to_json_dict()/config_dict()."""

    _command: str | None = None
    _config: tuple[str, ...] = ()
    _omit: tuple[str, ...] = ()
    _reshape: dict = {}
    _spread: dict = {"params": "{}"}
    _extra: tuple[str, ...] = ()

    def _render(self, config_only: bool) -> dict:
        direct, spread = _plan(type(self), config_only)
        out = {name: convert(getattr(self, name)) for name, convert in direct}
        for name, pattern in spread:
            for k, v in plain(getattr(self, name)).items():
                out[pattern.format(k.lower())] = v
        if self._command is not None:
            out["command"] = self._command
        return out

    def to_json_dict(self) -> dict:
        return self._render(False)

    def config_dict(self) -> dict:
        return self._render(True)
