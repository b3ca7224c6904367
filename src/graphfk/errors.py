"""The package's two errors, one per failing exit status of the CLI.

``GraphFKError`` refuses an input (exit 1); ``NumericalFailure`` reports
a numerical routine that failed on an accepted input (exit 2).  The
message of each names what went wrong; the CLI prints it in its JSON
error record.
"""


class GraphFKError(Exception):
    """An input refused: a config, a file, a parameter or a value."""


class NumericalFailure(GraphFKError):
    """A numerical routine that failed on an accepted input."""
