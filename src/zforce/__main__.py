"""``python -m zforce``: the ``zforce`` command, under a name that no other
installed script (gzip's ``zforce``, for one) can shadow on ``PATH``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
