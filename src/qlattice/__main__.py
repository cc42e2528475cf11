"""``python -m qlattice``: the same command line as the ``qlattice`` script."""

from . import cli

if __name__ == "__main__":
    raise SystemExit(cli.main())
