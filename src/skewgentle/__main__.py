"""``python -m skewgentle ...`` runs the command line of :mod:`skewgentle.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
