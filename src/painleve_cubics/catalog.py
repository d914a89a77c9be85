"""Catalog file access: the one place that knows the catalog file format.

Catalogs (cubics, charts, lambda tables, arrows, signatures, unfolding
cases) are versioned JSON files shipped under ``painleve_cubics/data``.
A different catalog root can be supplied with the CLI ``--catalog`` flag
or the PAINLEVE_CUBICS_CATALOG environment variable, so transcription
fixes never require touching code.

Each file is read and parsed once (``load`` is cached like every loader
built on it; ``set_catalog_root`` and ``clear_caches`` reset them all).
Every loader builds an entry inside ``context("<file>.json <section>.<key>")``,
so a malformed entry surfaces as one ``CatalogError`` naming its file and
key; a failed lookup by name raises ``UnknownEntry``.  ``pairs`` reads the
``{"u,v": coefficient}`` tables.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from fractions import Fraction
from importlib import resources
from pathlib import Path

ENV_VAR = "PAINLEVE_CUBICS_CATALOG"

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


def set_catalog_root(path: str | os.PathLike | None) -> None:
    global _override_root
    _override_root = Path(path) if path is not None else None
    clear_caches()


def catalog_root() -> Path | None:
    if _override_root is not None:
        return _override_root
    env = os.environ.get(ENV_VAR)
    return Path(env) if env else None


@cached
def load(name: str) -> dict:
    """Catalog ``name`` (e.g. 'charts') as parsed JSON; callers must not mutate it."""
    root = catalog_root()
    try:
        if root is not None:
            text = (root / f"{name}.json").read_text()
        else:
            text = resources.files("painleve_cubics.data").joinpath(f"{name}.json").read_text()
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {name!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog {name!r} is not valid JSON: {exc}") from exc


@contextlib.contextmanager
def context(where: str):
    """Build one catalog entry: a KeyError, ValueError or TypeError inside
    becomes a CatalogError prefixed with ``where`` ("<file>.json <section>.<key>").

    A missing field reads ``missing key 'x'``; an UnknownEntry keeps its own
    sentence.  A CatalogError already raised by an inner entry passes
    unchanged, so the innermost entry is the one named.
    """
    try:
        yield
    except CatalogError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, UnknownEntry):
            message = exc.args[0]
        elif isinstance(exc, KeyError):
            message = f"missing key {exc}"
        else:
            message = str(exc)
        raise CatalogError(f"{where}: {message}") from exc


def pairs(table: dict) -> dict:
    """A ``{"u,v": coefficient}`` table as ``{(u, v): Fraction}``."""
    return {tuple(key.split(",")): Fraction(value) for key, value in table.items()}
