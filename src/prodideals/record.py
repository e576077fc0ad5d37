"""The shared base of the toolkit's value records.

A record class lists its fields as annotations, with defaults as class
attributes.  ``Record`` sets up the field handling in ``__init_subclass__``
without generating code (``@dataclass`` ran ``exec`` six times per class and
imported ``inspect``, a cost every CLI process paid).  A record keeps:

* construction by position or keyword, defaults from the class, then
  ``__post_init__`` (validation and normalisation) on every construction;
* equality field by field, only between instances of the same class;
* ``hash(x) == hash(tuple of the fields)``, so the iteration order of sets
  and dicts, and with it every report byte, matches the dataclass version;
* assignment and deletion raise ``AttributeError``;
* ``Name(field=value, ...)`` as ``repr`` unless the class defines one.

``set_field`` writes fields in ``__post_init__``, and in ``__init__`` where a
class writes it out at half the cost of ``Record.__init__``: only the four
that one tier-1 run builds by the million, ``FinCofSet`` (3.5M),
``RingElement`` (3.0M), ``ProductElement`` (1.1M) and ``MaxIdealId`` (0.75M).
"""

from operator import attrgetter

#: Sets a field of a record, in ``__init__`` or ``__post_init__``.
set_field = object.__setattr__


class Record:
    """Base of the value records (see the module docstring)."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        get = attrgetter(*fields) if fields else lambda self: ()

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return other is self or get(self) == get(other)
            return NotImplemented

        cls.__eq__ = __eq__
        if len(fields) == 1:
            cls.__hash__ = lambda self: hash((get(self),))
        else:
            cls.__hash__ = lambda self: hash(get(self))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            if (len(args) > len(fields) or values.keys() != set(fields)
                    or any(name in kwargs for name in fields[:len(args)])):
                raise TypeError(f"{self.__class__.__qualname__}() takes the fields "
                                f"{', '.join(fields)}, got {args} and {kwargs}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
