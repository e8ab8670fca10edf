"""Exception types shared across the library."""


class CsmimoError(Exception):
    """Base class for all library-specific errors."""


class SpecError(CsmimoError, ValueError):
    """An input outside its declared range, of the wrong type, or not one
    of its field's choices, named in one line (see ``csmimo.spec``)."""


class IndivisibleBitLength(CsmimoError, ValueError):
    """Bit stream length is not a multiple of bits-per-symbol."""


class DimensionMismatch(CsmimoError, ValueError):
    """Vector or matrix dimensions do not match the configured sizes."""


class BadSubblockShape(CsmimoError, ValueError):
    """Sub-block count does not evenly divide the stream counts, or leaves
    sub-blocks too small for the chosen solver."""


class DictionaryTooLarge(CsmimoError, ValueError):
    """Requested candidate enumeration exceeds the configured cap."""


class RankDeficientChannel(CsmimoError):
    """Channel matrix is (numerically) rank deficient, equalization impossible."""


class TooManyColumns(CsmimoError, ValueError):
    """Matrix has too many columns for a combinatorial search."""
