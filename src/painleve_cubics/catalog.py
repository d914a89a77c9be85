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
``{"u,v": coefficient}`` tables.  ``X_NAMES`` and ``SHEAR_NAMES`` are the
coordinate names that the catalogs key their charts and shifts by.
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
    """Yield the value at ``path`` in catalog ``name`` inside its ``context``.

    ``path[:-1]`` is read with ``section``; a last key it lacks raises
    ``UnknownEntry`` outside the entry's context, so only an enclosing entry
    prefixes the sentence.
    """
    *sections, key = path
    table = section(name, *sections)
    where = f"{name}.json {'.'.join(sections)}".rstrip()
    if key not in table:
        raise UnknownEntry(f"{where} has no {key!r} (have {', '.join(table)})")
    with context(f"{where}{'.' if sections else ' '}{key}"):
        yield table[key]


def typed(table: dict, field: str, kind: type, default=None):
    """``table[field]`` (or ``default`` if absent) if its type is exactly ``kind``."""
    value = table[field] if default is None else table.get(field, default)
    if type(value) is not kind:
        raise ValueError(f"{field} is {value!r}, not "
                         + ("true or false" if kind is bool else "an integer"))
    return value


def pairs(table: dict) -> dict:
    """A ``{"u,v": coefficient}`` table as ``{(u, v): Fraction}``."""
    return {tuple(key.split(",")): Fraction(value) for key, value in table.items()}
