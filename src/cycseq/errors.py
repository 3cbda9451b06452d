"""Exception types shared across the package."""


class CycseqError(Exception):
    """Base class for all cycseq errors."""


class DomainError(CycseqError, ValueError):
    """Input is outside the mathematical domain of an operation."""


class ResourceCapError(CycseqError, RuntimeError):
    """Requested computation exceeds the configured enumeration cap."""


def brief(value) -> str:
    """An argument as a message shows it: an int in decimal up to 64 bits
    and by its bit length past that, anything else by repr. No refusal
    turns an unbounded argument into decimal, which past 4,300 digits
    raises ValueError itself."""
    if not isinstance(value, int):
        return repr(value)
    if value.bit_length() > 64:
        return f"<{value.bit_length()}-bit integer>"
    return str(value)
