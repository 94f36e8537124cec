"""``python -m graphlim``: the same command line as the ``graphlim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
