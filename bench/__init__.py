"""The repo's benchmark: ``python -m bench`` (see bench/README.md)."""
