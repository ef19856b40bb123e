"""Reading fields of the JSON inputs (simulation configs, channel files)."""

import reprlib
from numbers import Integral, Real

_REQUIRED = object()


def shown(value):
    """value as an error line echoes it: its repr, or reprlib's bounded view
    where that is shorter, so a long list or string from an input file prints
    as a few entries rather than whole.  A dict keeps its key order unless cut."""
    return min(repr(value), reprlib.repr(value), key=len)


def int_field(obj, key, default=_REQUIRED):
    """obj[key] as an int, or `default` when the key is absent and a default is
    given.  An integral float (48.0) is read as its int; any other value, 48.9
    among them, raises ValueError naming the key instead of being truncated."""
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{key} must be an integer, got {shown(value)}")


def seed_field(obj, key):
    """obj[key] as a seed: an int_field that defaults to 0 and is refused,
    naming the key, when below 0."""
    value = int_field(obj, key, 0)
    if value < 0:
        raise ValueError(f"{key} must be >= 0, got {shown(value)}")
    return value


def number_field(obj, key):
    """obj[key] as a float; a string, a boolean, null or any other non-number
    raises ValueError naming the key instead of being converted."""
    value = obj[key]
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{key} must be a number, got {shown(value)}")


def bool_field(obj, key, default=_REQUIRED):
    """obj[key] as a JSON boolean; any other value, the string "false" among
    them, raises ValueError naming the key instead of being read as truthy."""
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    if isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be true or false, got {shown(value)}")


def number_list_field(obj, key):
    """obj[key] as a non-empty list of floats; a string, an empty list or a
    non-numeric entry raises ValueError naming the key."""
    value = obj[key]
    if (isinstance(value, (list, tuple)) and value
            and all(isinstance(v, Real) and not isinstance(v, bool) for v in value)):
        return [float(v) for v in value]
    raise ValueError(f"{key} must be a non-empty list of numbers, got {shown(value)}")


def object_field(obj, key, default=_REQUIRED, many=False):
    """obj[key] as a JSON object, or with many=True as a non-empty list of
    them; any other value, a string or a number among them, raises ValueError
    naming the key instead of failing later on what it holds."""
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    entries = value if many and isinstance(value, list) else [value]
    if isinstance(value, list) == many and entries and all(isinstance(v, dict) for v in entries):
        return value
    what = "a non-empty list of objects" if many else "an object"
    raise ValueError(f"{key} must be {what}, got {shown(value)}")
