"""``python -m repro`` entry point."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
