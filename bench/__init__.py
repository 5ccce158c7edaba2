"""The repository's benchmark: ``python -m bench run`` (see README.md)."""
