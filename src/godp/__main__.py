"""Run the godp command line: python -m godp."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
