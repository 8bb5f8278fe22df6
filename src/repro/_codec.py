"""One field codec: how a JSON value becomes a field value, stated once.

Every row that arrives from outside the program — a query, its scenario,
protocol spec and fleet, a fault plan, its events and adversary mix — is
a frozen dataclass (or, for specs and fleets, a typed constructor) whose
dict form is read here, field by field, by the field's declared type:

``int``
    A finite integer.  ``true``/``false``, fractions, ``NaN``,
    ``±Infinity``, numbers past the float range (``1e400``) and strings
    are refused; an integral float such as ``1e4`` reads as ``10000``.
``float``
    A finite number.  Booleans, strings, ``NaN`` and ``±Infinity`` are
    refused.
``bool`` / ``str``
    A JSON boolean / a JSON string.
``X | None``
    ``null`` or ``X``.  Union members JSON cannot carry (a live
    generator, a correlation model) drop out, so ``SeedLike`` reads as
    ``int | None``.
``tuple[X, ...]``, ``Sequence[X]``, ``Iterable[X]``
    A list whose elements follow ``X``'s rule (``tuple[X, Y]``: a list of
    exactly two).
an ``Enum``
    A member name, in any case.
a class with ``from_dict``
    A JSON object, read by that method.

A dataclass field may name its own reader in ``metadata["decode"]``; a
field whose type is none of the above is refused whenever a row gives it;
an unannotated constructor parameter takes the JSON value as it is.  The
table is built once per class (or constructor) and cached.  Every refusal
is an :class:`~repro.errors.InvalidConfigurationError` naming the field —
a 400 at the daemon, one line at the CLI — so a malformed row never
becomes a 500 or a silently different question.

:func:`encode_fields` is the inverse: every field not at its default, in
declaration order, so a well-formed row round-trips to the same bytes.
"""

from __future__ import annotations

import enum
import inspect
import math
import numbers
import re
import sys
import typing
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import MISSING, fields, is_dataclass
from types import NoneType, UnionType
from typing import Callable, NamedTuple

from repro.errors import InvalidConfigurationError

#: A reader: ``(field name, JSON value) -> field value``, raising by name.
Reader = Callable[[str, object], object]

#: The largest integer JSON can mean as a finite number.
_INT_MAX = int(sys.float_info.max)


def require_mapping(what: str, data) -> Mapping:
    """``data`` if it is a JSON object.  A list or a number where an
    object belongs must be the doors' ``InvalidConfigurationError``, not
    an ``AttributeError``."""
    if not isinstance(data, (dict, Mapping)):
        raise InvalidConfigurationError(
            f"{what} must be an object, got {type(data).__name__}"
        )
    return data


def one_key(label: str, data, keys: Collection[str]) -> tuple[str, object]:
    """The ``(key, value)`` of a JSON object that holds exactly one of
    ``keys`` (a tagged union spelt by its key): any other key, or a
    second one, is refused by name."""
    if type(data) is not dict:
        require_mapping(label, data)
    if len(data) == 1:
        ((key, value),) = data.items()
        if key in keys:
            return key, value
    raise InvalidConfigurationError(
        f"{label} must have exactly one of {sorted(set(keys))}, got {list(data)}"
    )


def finite_int(name: str, value) -> int:
    """The ``int`` rule (``int()`` would read ``true`` as 1, ``2.5`` as 2
    and raise ``OverflowError`` on ``1e400``)."""
    if type(value) is int and -_INT_MAX <= value <= _INT_MAX:
        return value
    if isinstance(value, float):
        if math.isfinite(value) and value.is_integer():
            return int(value)
    elif (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and -_INT_MAX <= value <= _INT_MAX
    ):
        return int(value)
    raise InvalidConfigurationError(f"{name} must be a finite integer, got {value!r}")


def finite_float(name: str, value) -> float:
    """The ``float`` rule (``float()`` would read ``"0.5"`` and ``NaN``)."""
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise InvalidConfigurationError(f"{name} must be a finite number, got {value!r}")


def json_bool(name: str, value) -> bool:
    """The ``bool`` rule (``bool("false")`` is ``True``)."""
    if value is True or value is False:
        return value
    raise InvalidConfigurationError(f"{name} must be a JSON boolean, got {value!r}")


def json_str(name: str, value) -> str:
    if isinstance(value, str):
        return value
    raise InvalidConfigurationError(f"{name} must be a string, got {value!r}")


def jsonable(value):
    """JSON-ready form of one field value: objects with ``to_dict``
    serialize through it, tuples become lists (recursively), everything
    else passes through."""
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if isinstance(value, tuple):
        return [jsonable(item) for item in value]
    return value


def encode_fields(obj) -> dict:
    """Every field of a codec dataclass not at its default, JSON-ready."""
    data: dict = {}
    for spec in fields(obj):
        value = getattr(obj, spec.name)
        if value != spec.default:
            data[spec.name] = jsonable(value)
    return data


# ---------------------------------------------------------------------------
# Readers, one per declared type
# ---------------------------------------------------------------------------
_SCALARS: dict[type, Reader] = {
    int: finite_int,
    float: finite_float,
    bool: json_bool,
    str: json_str,
}
_PLURALS = {int: "integers", float: "numbers", bool: "booleans", str: "strings"}


def _as_is(name: str, value):
    return value


def _unreadable(name: str, value):
    raise InvalidConfigurationError(f"{name} cannot be given in JSON, got {value!r}")


def _plural(hint) -> str:
    """How a refusal names a list's elements: ``event objects`` for
    ``FaultEvent``, ``integers`` for ``int``."""
    if hint in _PLURALS:
        return _PLURALS[hint]
    if typing.get_origin(hint) is not None:
        return "lists"
    words = re.findall("[A-Z][a-z]*", getattr(hint, "__name__", "")) or ["value"]
    return f"{words[-1].lower()} objects"


def _optional(read: Reader) -> Reader:
    def read_optional(name: str, value):
        return None if value is None else read(name, value)

    return read_optional


def _list_of(read: Reader, hint) -> Reader:
    what = _plural(hint)

    def read_list(name: str, value):
        if not isinstance(value, (list, tuple)):
            raise InvalidConfigurationError(
                f"{name} must be a list of {what}, got {type(value).__name__}"
            )
        item = name + "[]"
        return tuple([read(item, element) for element in value])

    return read_list


def _fixed_list(reads: tuple[Reader, ...]) -> Reader:
    def read_fixed(name: str, value):
        if not isinstance(value, (list, tuple)) or len(value) != len(reads):
            raise InvalidConfigurationError(
                f"{name} must be a list of {len(reads)} values, got {value!r}"
            )
        item = name + "[]"
        return tuple([read(item, element) for read, element in zip(reads, value)])

    return read_fixed


def _member_of(kind: type[enum.Enum]) -> Reader:
    def read_member(name: str, value):
        member = kind.__members__.get(json_str(name, value).upper())
        if member is None:
            raise InvalidConfigurationError(
                f"unknown {name} {value!r}; expected one of "
                f"{[key.lower() for key in kind.__members__]}"
            )
        return member

    return read_member


def reader(hint) -> Reader | None:
    """The reader of one declared type, or ``None`` if JSON cannot carry it."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union or origin is UnionType:
        members = [arg for arg in args if arg is not NoneType]
        reads = [read for read in map(reader, members) if read is not None]
        if len(reads) > 1:
            return None
        read = reads[0] if reads else _unreadable
        return _optional(read) if NoneType in args else read
    if origin in (Sequence, Iterable) or (origin is tuple and args[-1:] == (Ellipsis,)):
        read = reader(args[0])
        return None if read is None else _list_of(read, args[0])
    if origin is tuple:
        reads = tuple(map(reader, args))
        return None if None in reads else _fixed_list(reads)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return _member_of(hint)
    if isinstance(hint, type) and callable(getattr(hint, "from_dict", None)):
        from_dict = hint.from_dict
        return lambda name, value: from_dict(value)
    return None


# ---------------------------------------------------------------------------
# One table per class (or constructor), built once
# ---------------------------------------------------------------------------
class _Table(NamedTuple):
    readers: dict[str, Reader]
    required: tuple[str, ...]


_TABLES: dict[object, _Table] = {}


def _type_hints(target) -> dict:
    """Resolved annotations of ``target`` (a class: its bases too, each in
    its own module).  A class whose annotations name something its module
    does not bind — one declared inside a function — keeps its bases'
    hints; its own fields read as given."""
    hints: dict = {}
    for owner in reversed(target.__mro__) if isinstance(target, type) else (target,):
        try:
            hints.update(typing.get_type_hints(owner))
        except NameError:
            continue
    return hints


def _table(target) -> _Table:
    """Build (and cache) the reader of every field or parameter of ``target``."""
    readers: dict[str, Reader] = {}
    required = []
    if is_dataclass(target):
        hints = _type_hints(target)
        for spec in fields(target):
            if typing.get_origin(hints.get(spec.name)) is typing.ClassVar:
                continue  # a base's ClassVar that a subclass redeclared
            custom = spec.metadata.get("decode")
            if custom is not None:
                readers[spec.name] = lambda name, value, custom=custom: custom(value)
            elif spec.name in hints:
                readers[spec.name] = reader(hints[spec.name]) or _unreadable
            else:
                readers[spec.name] = _as_is
            if spec.default is MISSING and spec.default_factory is MISSING:
                required.append(spec.name)
    else:
        hints = _type_hints(target.__init__ if isinstance(target, type) else target)
        for param in inspect.signature(target).parameters.values():
            hint = hints.get(param.name)
            readers[param.name] = _as_is if hint is None else reader(hint) or _unreadable
            if param.default is param.empty:
                required.append(param.name)
    table = _TABLES[target] = _Table(readers, tuple(required))
    return table


def decode_fields(target, data, label: str, tag: str | None = None):
    """``target(**fields)`` from the JSON object ``data``, each field read
    by its declared type.  ``target`` is a dataclass or a typed
    constructor; ``tag`` names the key that chose it (``"kind"``), which
    is skipped.  An unknown or a missing required field is refused by
    name."""
    readers, required = _TABLES.get(target) or _table(target)
    if type(data) is not dict:
        require_mapping(label, data)
    kwargs = {}
    for name, value in data.items():
        read = readers.get(name)
        if read is not None:
            kwargs[name] = read(name, value)
        elif name != tag:
            unknown = sorted(set(data) - set(readers) - {tag})
            raise InvalidConfigurationError(
                f"unknown {label} fields {unknown}; "
                f"expected a subset of {sorted(readers)}"
            )
    for name in required:
        if name not in kwargs:
            raise InvalidConfigurationError(f"{label} dict needs a {name!r} field")
    return target(**kwargs)
