"""Command-line entry point: ``python -m hspansharp``."""

from .harness.cli import entry

if __name__ == "__main__":
    entry()
