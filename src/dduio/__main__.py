"""``python -m dduio``: the same command line as the ``dduio`` script."""
import sys

from .cli import main

sys.exit(main())
