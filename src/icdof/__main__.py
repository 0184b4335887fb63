"""`python -m icdof <verb> [flags]`: the same entry point as `icdof`."""

from .cli import main

if __name__ == "__main__":
    main()
