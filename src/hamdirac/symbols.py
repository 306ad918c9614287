"""Symbol registry shared by every expression of one analysis.

All expressions of a single problem hold indices into one ``SymbolTable``;
registration order fixes the canonical monomial order, so it must be
deterministic; `register_fresh` names every symbol a stage makes up.  It
also holds `_Record`, the base of the package's record classes (frozen
values: plain classes with `__slots__`, which import without the code
generation of `dataclasses`): this module imports no other module of the
package, so every one can import it from here.
"""

from __future__ import annotations

from types import MappingProxyType

KINDS = (
    "position",
    "velocity",
    "acceleration",
    "momentum",
    "multiplier",
    "parameter",
    "time",
)


class SymbolError(Exception):
    pass


class _Record:
    """Base of the package's record classes: a record is a frozen value.

    Its fields are its `__slots__`, in constructor order, each set once by
    `_fields` in the class's own `__init__` (`Symbol` sets its own five,
    none a list or a dict); assigning or deleting one raises
    AttributeError.  `_fields` stores a list as a tuple and a dict as a
    read-only view of a copy, so no field changes in place and a `{}` default
    is never shared.  Equality and the hash are those of the tuple of all
    fields (a mapping hashed as its set of items), and the repr lists them.
    """

    __slots__ = ()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def _fields(self, *values):
        """Set every field, in `__slots__` order, a list as a tuple and a dict as a read-only copy."""
        for name, value in zip(self.__slots__, values, strict=True):
            if isinstance(value, (list, dict)):
                value = tuple(value) if isinstance(value, list) else MappingProxyType(dict(value))
            object.__setattr__(self, name, value)

    def _replace(self, **changes):
        """A copy with the named fields changed, built by the constructor."""
        return type(self)(**{**{k: getattr(self, k) for k in self.__slots__}, **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(tuple(frozenset(v.items()) if isinstance(v, MappingProxyType) else v for v in self._key()))


class Symbol(_Record):
    __slots__ = ("name", "index", "kind", "base", "order")

    def __init__(self, name: str, index: int, kind: str, base: str | None = None, order: int = 0):
        # base: the position this is a derivative of, if any; order: 0
        # position/other, 1 velocity, 2 acceleration.  Set directly, not by
        # `_fields`: no field is a list or a dict, and symbols are many
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "order", order)

    # _Record's equality and hash, spelled out to cost what a dataclass's did:
    # symbols key most of the pipeline's dicts, and lists of them are searched
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.index, self.kind, self.base, self.order) == (
                other.name, other.index, other.kind, other.base, other.order
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.index, self.kind, self.base, self.order))

    def __repr__(self):
        return self.name


class SymbolTable:
    """The registry every stage of one analysis registers its symbols in: the
    package's one mutable object, compared by identity."""

    __slots__ = ("_by_name", "_by_index", "_fresh")

    def __init__(self):
        self._by_name = {}
        self._by_index = []
        self._fresh = {}  # (requested name, kind) -> the symbol register_fresh gave it

    def register(self, name: str, kind: str, base: str | None = None, order: int = 0) -> Symbol:
        if kind not in KINDS:
            raise SymbolError(f"unknown symbol kind {kind!r}")
        if name in self._by_name:
            existing = self._by_name[name]
            if existing.kind != kind:
                raise SymbolError(f"symbol {name!r} already registered with kind {existing.kind!r}")
            return existing
        sym = Symbol(name, len(self._by_index), kind, base, order)
        self._by_name[name] = sym
        self._by_index.append(sym)
        return sym

    def register_fresh(self, name: str, kind: str) -> Symbol:
        """A new symbol of `kind` (a position with its d() and dd() symbols)
        under the first of `name`, `name_`, ... free with all its names.  Each
        request is remembered by (name, kind): a repeat returns the symbol the
        first one got, while a name held by anything else is stepped past."""
        key = (name, kind)
        if key not in self._fresh:
            while name in self._by_name or kind == "position" and {f"d({name})", f"dd({name})"} & self._by_name.keys():
                name += "_"
            self._fresh[key] = self.position(name) if kind == "position" else self.register(name, kind)
        return self._fresh[key]

    def position(self, name: str) -> Symbol:
        """Register a position coordinate together with its d()/dd() symbols."""
        sym = self.register(name, "position", base=name, order=0)
        self.register(f"d({name})", "velocity", base=name, order=1)
        self.register(f"dd({name})", "acceleration", base=name, order=2)
        return sym

    def velocity(self, pos: Symbol) -> Symbol:
        return self._by_name[f"d({pos.base or pos.name})"]

    def acceleration(self, pos: Symbol) -> Symbol:
        return self._by_name[f"dd({pos.base or pos.name})"]

    def get(self, name: str) -> Symbol | None:
        return self._by_name.get(name)

    def __getitem__(self, key) -> Symbol:
        if isinstance(key, int):
            return self._by_index[key]
        sym = self._by_name.get(key)
        if sym is None:
            raise SymbolError(f"unknown symbol {key!r}")
        return sym

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_index)

    def symbols(self):
        return tuple(self._by_index)
