"""``python -m qntl``: the ``qntl`` command, also from a source checkout."""
import sys

from qntl.cli.main import main

if __name__ == "__main__":
    sys.exit(main())
