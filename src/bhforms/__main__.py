"""``python -m bhforms``: the command-line interface of ``bhforms.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
