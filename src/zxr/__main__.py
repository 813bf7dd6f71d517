"""``python -m zxr``: the zxr command line, exiting with ``cli.main``'s code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
