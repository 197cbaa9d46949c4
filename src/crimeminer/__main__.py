"""``python -m crimeminer``: the ``crimeminer`` command, compiling ``cli.py`` once."""
import sys

from .cli import main

sys.exit(main())
