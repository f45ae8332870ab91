"""`python -m moscal ...` runs the `moscal` command line."""

import sys

from .cli import main

sys.exit(main())
