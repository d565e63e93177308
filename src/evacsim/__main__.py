"""`python -m evacsim`: the command-line program, as the `evacsim` script runs it."""

from .cli import run

run()
