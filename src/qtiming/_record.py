"""Frozen value records, without ``dataclasses`` and the ``inspect`` its import loads."""


def record(cls):
    """Give ``cls`` read-only instances and, unless it defines its own, a field-wise ``__init__``
    ending in ``__post_init__``, and ``__repr__``, ``__eq__`` and ``__hash__`` over the fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    required, known = set(names) - defaults.keys(), set(names)
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        given = {**dict(zip(names, args)), **kwargs}  # fewer keys: too many positionals, or a repeat
        if len(given) < len(args) + len(kwargs) or not required <= given.keys() <= known:
            raise TypeError(f"{cls.__name__}() takes {names}, defaults for {tuple(defaults)}; "
                            f"got {len(args)} positional and {tuple(kwargs)}")
        for name in names:
            object.__setattr__(self, name, given[name] if name in given else defaults[name])
        post_init(self)
    def fields(self):
        return tuple(getattr(self, name) for name in names)
    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"
    def __eq__(self, other):
        return fields(self) == fields(other) if type(other) is type(self) else NotImplemented
    def frozen(self, name, *value):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set or delete {name!r}")
    methods = dict(__init__=__init__, __repr__=__repr__, __eq__=__eq__, __setattr__=frozen,
                   __delattr__=frozen, __hash__=lambda self: hash(fields(self)))
    for attr in methods.keys() - cls.__dict__.keys():
        setattr(cls, attr, methods[attr])
    return cls

