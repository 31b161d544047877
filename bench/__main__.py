"""``python -m bench``: see :mod:`bench.harness` and bench/README.md."""

import sys

from bench.harness import main

if __name__ == "__main__":
    sys.exit(main())
