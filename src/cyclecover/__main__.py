"""``python -m cyclecover``: the command line, as the ``cyclecover`` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
