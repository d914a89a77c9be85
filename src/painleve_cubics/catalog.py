"""Catalog file access: the one place that knows the catalog file format.

Catalogs (cubics, charts, lambda tables, arrows, signatures, unfolding
cases) are versioned JSON files shipped under ``painleve_cubics/data``;
``set_catalog_root`` (the CLI ``--catalog`` flag) reads them from another
directory, so transcription fixes never require touching code.

Each file is read and parsed once (``load`` is cached like every loader
built on it; ``set_catalog_root`` and ``clear_caches`` reset them all).
Every keyed read goes through ``entry``: a key its section lacks raises
``UnknownEntry("<file>.json <section> has no 'KEY' (have A, B)")``, and the
entry is built inside ``context("<file>.json <section>.<key>")``, so a
malformed entry surfaces as one ``CatalogError`` naming its file and key.
A whole section is read with ``section``, which names the file when the
section is missing or of the wrong kind.  ``pairs`` reads the
``{"u,v": coefficient}`` tables, each key a pair of names the table allows.
``X_NAMES``, ``SHEAR_NAMES`` and ``G_NAMES`` are the coordinate and parameter
names that the catalogs key their entries by.
"""

from __future__ import annotations

import contextlib
import functools
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

X_NAMES = ("x1", "x2", "x3")
SHEAR_NAMES = ("s1", "s2", "s3", "p1", "p2", "p3")
G_NAMES = ("G1", "G2", "G3", "Ginf")
_NOUNS = {int: "an integer", bool: "true or false", str: "a string", dict: "a JSON object"}

_override_root: Path | None = None
_cache_clearers: list = []


class CatalogError(ValueError):
    pass


class UnknownEntry(KeyError):
    """A lookup by name that no table holds; the message is a whole sentence."""


def cached(fn):
    """functools.cache wrapper that registers for catalog-override resets."""
    wrapped = functools.cache(fn)
    _cache_clearers.append(wrapped.cache_clear)
    return wrapped


def clear_caches() -> None:
    for clear in _cache_clearers:
        clear()


def set_catalog_root(path: str | Path | None) -> None:
    global _override_root
    _override_root = Path(path) if path is not None else None
    clear_caches()


@cached
def load(name: str) -> dict:
    """Catalog ``name`` (e.g. 'charts') as parsed JSON; callers must not mutate it."""
    try:
        if _override_root is not None:
            text = (_override_root / f"{name}.json").read_text()
        else:
            text = resources.files("painleve_cubics.data").joinpath(f"{name}.json").read_text()
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {name!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog {name!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CatalogError(f"catalog {name!r} is not a JSON object")
    return data


@contextlib.contextmanager
def context(where: str):
    """Build one catalog entry: a LookupError, ValueError or TypeError inside
    becomes a CatalogError prefixed with ``where`` ("<file>.json <section>.<key>").

    A missing field reads ``missing key 'x'``; an UnknownEntry keeps its own
    sentence.  A CatalogError already raised by an inner entry passes
    unchanged, so the innermost entry is the one named.
    """
    try:
        yield
    except CatalogError:
        raise
    except (LookupError, ValueError, TypeError) as exc:
        if isinstance(exc, UnknownEntry):
            message = exc.args[0]
        elif isinstance(exc, KeyError):
            message = f"missing key {exc}"
        else:
            message = str(exc)
        raise CatalogError(f"{where}: {message}") from exc


def section(name: str, *path: str, kind: type = dict):
    """The section at ``path`` in catalog ``name``: a JSON object, or with
    ``kind=list`` an array.  One that is missing or of another kind is an
    error naming the file."""
    with context(f"{name}.json"):
        table = load(name)
        for part in path:
            table = table[part]
        if not isinstance(table, kind):
            noun = "array" if kind is list else "object"
            raise TypeError(f"{'.'.join(path)} is not a JSON {noun}")
    return table


@contextlib.contextmanager
def entry(name: str, *path: str):
    """Yield the JSON object at ``path`` in catalog ``name`` inside its ``context``.

    ``path[:-1]`` is read with ``section``; a last key it lacks raises
    ``UnknownEntry`` outside the entry's context, so only an enclosing entry
    prefixes the sentence.  The entry itself is read with ``section`` too."""
    *sections, key = path
    table = section(name, *sections)
    where = f"{name}.json {'.'.join(sections)}".rstrip()
    if key not in table:
        raise UnknownEntry(f"{where} has no {key!r} (have {', '.join(table)})")
    with context(f"{where}{'.' if sections else ' '}{key}"):
        yield section(name, *path)


def typed(table: dict, field: str, kind, default=None, what: str = ""):
    """``table[field]`` (a dotted path; ``default`` if given and absent) of ``kind``:
    an exact type, a tuple or dict view of allowed values (``what``, else ``one
    of ...``), ``[kind]`` for an array (returned as a tuple) or ``{names: kind}``
    for an object keyed by ``names``.  Only a str or an int is sought among
    allowed values, so no list is hashed and True is not 1.  A wrong value raises
    ``ValueError("<field> is <value!r>, not <what>")``, an item or a key named
    ``<field>[i]``, ``<field>.<key>`` or ``<field> key``."""
    *path, last = field.split(".")
    for key in path:
        table = table[key]
    return _checked(field, table[last] if default is None else table.get(last, default),
                    kind, what)


def _checked(name: str, value, kind, what: str):
    if isinstance(kind, list):
        if type(value) not in (list, tuple):  # a tuple is a default
            raise ValueError(f"{name} is {value!r}, not an array")
        return tuple([_checked(f"{name}[{i}]", item, kind[0], what)
                      for i, item in enumerate(value)])
    if isinstance(kind, dict):
        (names, item), = kind.items()
        return {_checked(f"{name} key", key, names, ""): _checked(f"{name}.{key}", v, item, what)
                for key, v in _checked(name, value, dict, "").items()}
    if isinstance(kind, type):
        if type(value) is not kind:
            raise ValueError(f"{name} is {value!r}, not {_NOUNS[kind]}")
    elif type(value) not in (str, int) or value not in kind:
        raise ValueError(f"{name} is {value!r}, not {what or 'one of ' + ', '.join(map(str, kind))}")
    return value


def pairs(table: dict, field: str, names=None, default=None) -> dict:
    """``table[field]`` read as ``typed`` reads a JSON object, a ``{"u,v": coefficient}``
    table, as ``{(u, v): Fraction}``.  A key names two different ones of ``names``
    (any two names without them), else ``<field> key is 'u,v', not a pair of <names>``."""
    out = {}
    for key, value in typed(table, field, dict, default).items():
        pair = tuple(key.split(","))
        if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= set(names or pair):
            what = ", ".join(names) if names else "different names"
            raise ValueError(f"{field} key is {key!r}, not a pair of {what}")
        out[pair] = Fraction(value)
    return out
