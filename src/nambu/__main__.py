"""``python -m nambu``: the command line of ``nambu.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
