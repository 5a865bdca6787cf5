"""``python -m unsharp``: the same entry point as the ``unsharp`` command."""

from .cli import main

if __name__ == "__main__":
    main()
