"""The CLI verbs' handlers, one module per subsystem.

``cli.VERBS`` names each verb's module and function here, and ``cli.main``
imports the module only once the command line has been read, so a call
compiles the handlers of its own subsystem and no other.  A handler runs as
``handler(format, *positionals, **options)`` and returns the exit code.
"""
