"""Reading fields of the JSON inputs (simulation configs, channel files)."""

from numbers import Integral

_REQUIRED = object()


def int_field(obj, key, default=_REQUIRED):
    """obj[key] as an int, or `default` when the key is absent and a default is
    given.  An integral float (48.0) is read as its int; any other value, 48.9
    among them, raises ValueError naming the key instead of being truncated."""
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")
