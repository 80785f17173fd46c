"""``python -m logmult <command>``: the same runner as the ``logmult`` script (:func:`logmult.cli.main`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
