"""Run the lahbell command line as ``python -m lahbell``."""

from .cli import run

run()
