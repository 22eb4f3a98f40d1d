"""Records without ``dataclasses``, whose import loads ``inspect`` and whose
decorator compiles source for every class; here the methods are closures."""


def record(cls=None, *, frozen=False, factories=None):
    """``@dataclass(frozen=frozen)`` as the package uses it.  The annotated
    names are the fields, in order; a class attribute is a default, and
    ``factories[name]()`` makes a field's default afresh for each instance."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, factories=factories)
    names = tuple(vars(cls).get("__annotations__", {}))
    defaults = {name: (lambda value=vars(cls)[name]: value) for name in names if name in vars(cls)}
    defaults.update(factories or {})
    post_init = getattr(cls, "__post_init__", None)
    fields = lambda self: tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args), **kwargs)  # drops an extra or repeated argument
            if len(given) != len(args) + len(kwargs) or {*given, *defaults} != {*names}:
                raise TypeError(f"{cls.__qualname__}() takes {names}; got {len(args)}, {[*kwargs]}")
            args = [given[name] if name in given else defaults[name]() for name in names]
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            self.__post_init__()

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return fields(self) == fields(other) if same else NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__, cls.__repr__, cls.__eq__, cls.__match_args__ = __init__, __repr__, __eq__, names
    cls.__hash__ = (lambda self: hash(fields(self))) if frozen else None
    if frozen:
        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls
