"""The toolkit's error types.

Data the program cannot use raises :class:`CrimeMinerError`; the CLI prints
its message as the one ``error:`` line and exits 2. Only the demographics
stage needs more: it catches :class:`UnmatchedNeighborhoodError` to add the
rejected-rows warning to the message.
"""


class CrimeMinerError(Exception):
    """Input data, or a value derived from it, that the program cannot use."""


class UnmatchedNeighborhoodError(CrimeMinerError):
    """A crime-data neighborhood is missing from the demographics table."""

    def __init__(self, name: str, suggestion: str | None = None):
        hint = f" (closest demographics name: {suggestion!r})" if suggestion else ""
        super().__init__(f"neighborhood {name!r} not found in demographics{hint}")
        self.name = name
        self.suggestion = suggestion
