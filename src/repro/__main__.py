"""``python -m repro sweep`` — run the gated experiment specs."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
