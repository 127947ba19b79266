import sys

from ._cli import run

sys.exit(run())
