"""Exception types raised across the toolkit, one class per contract error."""

from __future__ import annotations


class JobcubeError(Exception):
    """Base class for all toolkit errors. exit_code is the command line's exit
    status: 1 usage or config error, 2 data error, 3 invariant violation."""
    exit_code = 2


# --- source parsing ---------------------------------------------------------

class MalformedHeader(JobcubeError):
    """DBF header is internally inconsistent or not a supported dBASE III file."""


class TruncatedFile(JobcubeError):
    """File body is shorter than its header claims."""


class UnsupportedFieldType(JobcubeError):
    """DBF field descriptor declares a type outside C/N/D."""


class ShortLine(JobcubeError):
    """Fixed-width line is shorter than the layout extent."""


class DecodeError(JobcubeError):
    """Raw bytes do not decode under the source's declared encoding."""


class RaggedRow(JobcubeError):
    """A row's field count differs from its header, first row or layout."""


class MalformedCsv(JobcubeError):
    """CSV text breaks CSV syntax, or a record file does not match the
    canonical record layout (header, column count, year)."""


class InvalidFieldValue(JobcubeError):
    """A mandatory canonical field holds a value outside its domain."""


# --- preprocessing ----------------------------------------------------------

class BadLevelPair(JobcubeError):
    """from_level is not strictly below to_level in the concept hierarchy."""
    exit_code = 1


class MissingRequiredField(JobcubeError):
    """Projection would drop a field the warehouse (or dedup) still needs."""


class BadHierarchy(JobcubeError):
    """Concept hierarchy violates its tree/forest invariants."""
    exit_code = 1


class BadPolicy(JobcubeError):
    """Cleaning policy fills a forbidden field or misses a nullable one."""
    exit_code = 1


# --- warehouse --------------------------------------------------------------

class EmptyYearRange(JobcubeError):
    """Configured year range is empty (year_from > year_to)."""
    exit_code = 1


class UnresolvedDimensionValue(JobcubeError):
    """Record attribute has no matching dimension row (pipeline bug)."""


class CorruptManifest(JobcubeError):
    """Persisted warehouse fails a check on reading: checksums, layout or invariants."""
    exit_code = 3


# --- cube -------------------------------------------------------------------

class BadLevel(JobcubeError):
    """Requested hierarchy level is not reachable from the cube's level."""
    exit_code = 1


class UnknownMember(JobcubeError):
    """Member is not on the named axis."""
    exit_code = 1


class EmptyMemberSet(JobcubeError):
    """Dice filter carries an empty member set."""
    exit_code = 1


class BadQuery(JobcubeError):
    """Aggregate query references unknown dimensions, levels or measures."""
    exit_code = 1


# --- generation / benchmark -------------------------------------------------

class FieldOverflow(JobcubeError):
    """Value is longer than the declared field length."""


class UnsatisfiableSize(JobcubeError):
    """Target byte size is too small to hold even one record."""
    exit_code = 1


class AnswerMismatch(JobcubeError):
    """Scan baseline and cube disagree on a benchmarked query."""


class ConfigError(JobcubeError):
    """Pipeline config file is missing, malformed or references absent files."""
    exit_code = 1
