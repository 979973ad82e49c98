"""Line-oriented configuration files.

The format is diff-friendly plain text: one ``key = value`` pair per line,
with dotted section names (``mission.launch_speed_mps = 4.0``).  Blank
lines and ``#`` comments are ignored.  Values parse as int, float, bool,
or string; serialization sorts keys so parse -> serialize -> parse is the
identity on the mapping.

It also holds the one input-range policy of the library: a dataclass field
declared with ``ranged`` names its interval, and ``check_ranges``, the one
validator, raises ``ValueError`` for a value outside it (NaN, None and
bools lie outside every interval).  A field declared ``integer=True`` must
also hold an integer, which ``check_ranges`` checks after every interval, so
a float-only class pays only for an empty loop.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Dict, Tuple, Union

import numpy as np

__all__ = ["ConfigError", "parse_config", "serialize_config", "load_config",
           "ranged", "ranged_as", "check_ranges", "MAX_SEED", "philox_stream"]

Value = Union[int, float, bool, str]

# a seed is a word of a Philox key, an unsigned 64-bit integer
MAX_SEED = 2**64 - 1


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """The random stream keyed on ``(seed, stream)``: a numpy Generator on
    the Philox key ``[seed, stream]``."""
    return np.random.Generator(
        np.random.Philox(key=[np.uint64(seed), np.uint64(stream)]))


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


def _parse_value(raw: str) -> Value:
    text = raw.strip()
    if text.lower() == "true":
        return True
    if text.lower() == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config(text: str) -> Dict[str, Value]:
    """Parse ``key = value`` lines into a flat dotted-key mapping."""
    result: Dict[str, Value] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in result:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        result[key] = _parse_value(raw)
    return result


def _format_value(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def serialize_config(mapping: Dict[str, Value]) -> str:
    """Render a mapping as sorted ``key = value`` lines."""
    lines = [f"{key} = {_format_value(mapping[key])}"
             for key in sorted(mapping)]
    return "\n".join(lines) + ("\n" if lines else "")


def load_config(path: str) -> Dict[str, Value]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(text)


def _end(text: str):
    """An interval end as a float, or as an int where no float equals it
    (a seed's bound past 2**53), so every bound is exact."""
    value = float(text)
    try:
        exact = int(text)
    except ValueError:
        return value
    return value if value == exact else exact


def ranged(default, interval: str, integer: bool = False):
    """A dataclass field whose value must lie in ``interval``, written as
    ``"(0, inf)"`` or ``"[0, 1)"``, and be an integer if ``integer``; pass
    ``dataclasses.MISSING`` for no default.  Each open end is stored as the
    closed end one double inside it, so ``check_ranges`` needs two
    comparisons per field."""
    lo, hi = (_end(end) for end in interval[1:-1].split(","))
    if interval[0] == "(":
        lo = math.nextafter(lo, math.inf)
    if interval[-1] == ")":
        hi = math.nextafter(hi, -math.inf)
    return dataclasses.field(default=default,
                             metadata={"range": (interval, lo, hi),
                                       "integer": integer})


def ranged_as(cls, name: str):
    """A field with the default and interval of ``cls``'s ``ranged`` field
    ``name``, for a value that must stay valid in both classes."""
    source = cls.__dataclass_fields__[name]
    return ranged(source.default, source.metadata["range"][0])


# per class: (name, interval, lo, hi) of each ranged field, and the names of
# its integer fields
_CHECKS: Dict[type, Tuple[tuple, Tuple[str, ...]]] = {}
# they compare as 0 and 1, but lie in no interval; checked first, since a
# numpy bool cannot be compared with an int bound past 2**63
_BOOLS = frozenset((bool, np.bool_))


def check_ranges(obj) -> None:
    """Raise ``ValueError`` if a ``ranged`` field of ``obj`` lies outside
    its interval, as NaN, None, a bool and every other non-number do, or
    if, once every interval holds, a field declared ``integer=True`` holds
    anything but an integer, such as a float, even a whole one."""
    cls = type(obj)
    checks = _CHECKS.get(cls)
    if checks is None:
        fields = dataclasses.fields(cls)
        checks = _CHECKS[cls] = (
            tuple((f.name, *f.metadata["range"]) for f in fields
                  if "range" in f.metadata),
            tuple(f.name for f in fields if f.metadata.get("integer")))
    ranges, integers = checks
    values = obj.__dict__  # faster than getattr, for TouchdownState
    for name, interval, lo, hi in ranges:
        value = values[name]
        try:
            if type(value) not in _BOOLS and lo <= value <= hi:
                continue
        except TypeError:  # None, or another non-number
            pass
        raise ValueError(f"{cls.__name__}.{name} must lie in {interval}, "
                         f"got {value!r}")
    for name in integers:
        value = values[name]
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{cls.__name__}.{name} must be an integer, "
                             f"got {value!r}")
