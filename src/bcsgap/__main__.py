"""`python -m bcsgap`: the bcsgap command line, as the installed `bcsgap` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
