"""Frozen records without generated code (internal).

A record lists its fields as annotations, a class attribute giving a default.
Record reads the names once per class; plain methods give __init__ (then
__post_init__), equality, hash and repr over the fields not in _uncompared,
and immutability.  Nothing is exec'd, and dataclasses and inspect stay unloaded.
"""


class Record:
    _fields: tuple[str, ...] = ()  # every field in order; the report encoder reads it
    _uncompared: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = [f for f in cls.__dict__.get("__annotations__", {}) if f not in cls._fields]
        cls._fields = (*cls._fields, *own)
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args, **kwargs) -> None:
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields) or not set(kwargs) <= set(fields[len(args):]):
            raise TypeError("%s takes %s, not %d positional and %s"
                            % (name, fields, len(args), sorted(kwargs)))
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(values) < len(fields):
            raise TypeError("%s is missing %s" % (name, ", ".join(f for f in fields if f not in values)))
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validation hook: a record that checks its fields overrides this."""

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join("%s=%r" % (f, self.__dict__[f]) for f in self._compared)
        return "%s(%s)" % (type(self).__qualname__, shown)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError("cannot assign to or delete field %r of a frozen record" % name)

    __delattr__ = __setattr__


def replace(record: Record, **changes) -> Record:
    """A copy of record with some fields changed, built (and so validated) by __init__."""
    return type(record)(**{**{f: record.__dict__[f] for f in record._fields}, **changes})
