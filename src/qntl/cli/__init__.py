"""Command-line interface.  Import its submodules; the package re-exports nothing."""
