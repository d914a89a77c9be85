"""Certificates of the catalog objects, one module per subsystem.

Each module holds the functions that build a ``Certificate`` for its
subsystem, together with the helpers that only they call; the catalog
objects and the maths they are built from stay in the subsystem modules
(``cubics``, ``shear``, ``arcs``, ...).  A process that only builds or
prints catalog objects never imports this package, so it compiles none
of the certificate code.
"""
