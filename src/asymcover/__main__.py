"""`python -m asymcover`: the command line that the installed `asymcover` script runs."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
