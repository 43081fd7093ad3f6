"""``python -m balcut``: the same command-line interface as ``balcut``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
