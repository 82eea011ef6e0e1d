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

write_json writes a value's plain() form as text, byte for byte as
json.dump(..., sort_keys=True, indent=1) would, without building the
plain() copy or the text of the whole value.  The recursive _emit writes
any value.  List items are written _BATCH at a time, so the text of a
long list is never held whole.  A writer that holds its items as columns
(a phase scan's records) hands write_json their texts batch by batch,
each made by fill_template: the item class's %-template, built once from
its field plan, filled with each field's value_text, as _emit would
write it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import fields, is_dataclass
from functools import cache
from json.encoder import encode_basestring_ascii

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
    """(direct, spread) field plans: (name, convert) and (name, pattern);
    convert is None where the field's value is written in its plain() form."""
    if config_only:
        names = cls._config
    else:
        names = [f.name for f in fields(cls) if f.name not in cls._omit]
        names += cls._extra
    direct = tuple((n, cls._reshape.get(n)) for n in names if n not in cls._spread)
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

    def _fields(self, config_only: bool) -> dict:
        """Each key of the JSON form with a value whose plain() form is the
        key's JSON value."""
        direct, spread = _plan(type(self), config_only)
        out = {
            name: getattr(self, name) if convert is None else convert(getattr(self, name))
            for name, convert in direct
        }
        for name, pattern in spread:
            for k, v in plain(getattr(self, name)).items():
                out[pattern.format(k.lower())] = v
        if self._command is not None:
            out["command"] = self._command
        return out

    def to_json_dict(self) -> dict:
        return plain(self._fields(False))

    def config_dict(self) -> dict:
        return plain(self._fields(True))


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_WORDS = {None: "null", True: "true", False: "false"}

#: List items joined into one write.  Joining all 10^4 records of the
#: 0.01-grid scan at once raised the CLI's peak from 42.6 to 49.7 MB;
#: batches of 256 keep it within 0.2 MB of one write per item.
_BATCH = 256


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


# The text of a scalar, keyed by its exact type.
_SCALAR_TEXT = {
    float: _float_text,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: _WORDS.__getitem__,
    type(None): _WORDS.__getitem__,
}


def _emit(value, indent: str, out: list) -> None:
    """Append the text of plain(value), as json.dumps(plain(value),
    sort_keys=True, indent=1) writes it, nested at indent, to out."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, (tuple, list)):
        if not value:
            out.append("[]")
            return
        inner = indent + " "
        for item in value:
            if type(item) is not float:
                break
        else:
            # Plain floats, such as a projection point, in one join.
            sep = ",\n" + inner
            out.append("[" + sep[1:] + sep.join(map(_float_text, value)) + "\n" + indent + "]")
            return
        out.append("[\n" + inner)
        for i, item in enumerate(value):
            if i:
                out.append(",\n" + inner)
            _emit(item, inner, out)
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        _emit_dict({str(k): v for k, v in value.items()}, indent, out)
    elif isinstance(value, Record):
        _emit_dict(value._fields(False), indent, out)
    elif is_dataclass(value):
        _emit_dict({f.name: getattr(value, f.name) for f in fields(value) if f.init}, indent, out)
    # plain() passes anything else through, and json encodes subclasses of
    # its scalar types by the base type's rule.
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(float(value)))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_dict(value: dict, indent: str, out: list) -> None:
    if not value:
        out.append("{}")
        return
    inner = indent + " "
    for i, key in enumerate(sorted(value)):
        out.append(("{\n" if not i else ",\n") + inner + encode_basestring_ascii(key) + ": ")
        _emit(value[key], inner, out)
    out.append("\n" + indent + "}")


def _text(value, indent: str) -> str:
    out: list = []
    _emit(value, indent, out)
    return "".join(out)


@cache
def _template(cls) -> tuple[list[str], str]:
    """(names, template) of a Record class whose fields are all written
    under their own names in their plain() form: its keys in order, and
    template % their value_texts, its _emit text as a list item of
    write_json."""
    direct, spread = _plan(cls, False)
    if spread or cls._command is not None or any(convert for _, convert in direct):
        raise TypeError(f"{cls.__name__} has no field-by-field template")
    names = sorted(name for name, _ in direct)
    lines = [f"\n   {encode_basestring_ascii(k)}: %s" for k in names]
    return names, "{" + ",".join(lines) + "\n  }"


def value_text(value) -> str:
    """The _emit text of a field's value in a list item of write_json."""
    scalar = _SCALAR_TEXT.get(type(value))
    return scalar(value) if scalar is not None else _text(value, "   ")


def pairs_template(count: int) -> str:
    """value_text of a list of count pairs of floats, with %s for each
    float's _float_text, in order: the text of such a list of 0.5s, in
    which every "0.5" is one of them."""
    return value_text([(0.5, 0.5)] * count).replace("0.5", "%s")


def fill_template(cls, columns: dict):
    """The texts of cls items, each as write_json writes a list item, from
    columns: field name -> the value_texts of its values, item by item."""
    names, template = _template(cls)
    return map(template.__mod__, zip(*(columns[name] for name in names)))


def write_json(fh, payload: dict) -> None:
    """Write plain(payload) and a newline to the text file fh, byte for byte
    as json.dump(plain(payload), fh, sort_keys=True, indent=1) would.  The
    items of each list or tuple in payload are written _BATCH at a time.
    An iterator in payload stands for a list given by its items' texts,
    batch by batch: it yields nonempty lists of texts, each as _emit writes
    an item at indent "  "."""
    for i, key in enumerate(sorted(payload)):
        fh.write(("{\n " if not i else ",\n ") + encode_basestring_ascii(str(key)) + ": ")
        value = items = payload[key]
        if isinstance(items, (tuple, list)):
            value = (
                [_text(item, "  ") for item in items[start : start + _BATCH]]
                for start in range(0, len(items), _BATCH)
            )
        if not isinstance(value, Iterator):
            fh.write(_text(value, " "))
            continue
        opened = False
        for batch in value:
            fh.write((",\n  " if opened else "[\n  ") + ",\n  ".join(batch))
            opened = True
        fh.write("\n ]" if opened else "[]")
    fh.write("\n}\n" if payload else "{}\n")
