import sys

from ._cli import main

sys.exit(main())
