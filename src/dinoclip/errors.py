"""Exception kinds shared across the package.

The CLI maps these onto exit codes: validation-type errors exit 2,
numeric aborts exit 3, file/checkpoint problems exit 4.
"""


class DinoClipError(Exception):
    """Base class for all package errors."""


class ShapeError(DinoClipError):
    """Operand shapes disagree; the message names both shapes."""


class DomainError(DinoClipError):
    """A numeric argument is outside its documented domain."""


class ContractError(DinoClipError):
    """A precondition of an operation was violated."""


class ValidationError(DinoClipError):
    """Input data violates a schema or record invariant."""


class ManifestParseError(ValidationError):
    """A manifest line is not valid JSON; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"manifest line {line_no}: {message}")
        self.line_no = line_no


class AlignmentError(ValidationError):
    """Response file does not line up 1:1 with the captions it answers."""

    def __init__(self, expected: int, actual: int):
        super().__init__(f"expected {expected} response records, got {actual}")
        self.expected = expected
        self.actual = actual


class VocabularyError(ValidationError):
    """A token id falls outside the encoder vocabulary."""


class NumericError(DinoClipError):
    """A non-finite value appeared where a finite one is required."""


class CheckpointError(DinoClipError):
    """Base class for checkpoint file problems."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported (format-1 'DCKP' included)."""


class CheckpointTruncationError(CheckpointError):
    """Checkpoint file is cut short: its zip directory, which comes last, is gone."""


class CheckpointShapeError(CheckpointError):
    """A stored tensor group's length or dtype disagrees with the config."""
