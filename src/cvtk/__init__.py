"""Exact SL(2,C) character variety toolkit for the two-bridge knots J(2n,2n)."""

from operator import attrgetter

__version__ = "0.1.0"

# object.__setattr__ fills a field the way a frozen dataclass does; writing
# __dict__ instead would make every later attribute read slower
_set = object.__setattr__


class Record:
    """Base of the immutable result records, in place of a frozen dataclass.

    A subclass's fields are its own annotations, in order; a class attribute
    of the same name is that field's default.  Instances take the fields
    positionally or by keyword, compare equal when of the same class with
    equal fields, hash and print by their fields as a frozen dataclass does,
    and refuse assignment and deletion.  Values set through ``__dict__``
    (functools.cached_property) are not fields.  Importing dataclasses would
    pull in inspect and ast, about half of the cost of starting the CLI.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        if len(cls._fields) < 2:
            raise TypeError(f"{cls.__qualname__} needs at least two fields")
        # attrgetter is not a method: self._key(self) is the field tuple
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} fields")
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in self._defaults:
                _set(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__qualname__}() got unexpected fields {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        """Validation hook, run after the fields are set."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
