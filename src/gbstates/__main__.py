"""Entry point for ``python -m gbstates``; same as the ``gbstates`` command."""

from .cli import run

run()
