"""Error types shared across the toolkit.

Everything derives from ValueError so callers can catch broadly; the
subclasses exist where the distinction changes behavior (the survey turns
CapacityError into an NA cell instead of aborting).
"""


class CapacityError(ValueError):
    """An enumeration would exceed its cap or work budget."""


class FieldError(ValueError):
    """Scalar fields of the operands do not match the operation."""
