"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the CLI: InputError -> 2, CapabilityError -> 3,
any other AuditError (or unexpected exception) -> 4.
"""

from __future__ import annotations


class AuditError(Exception):
    """Base class for all rcaudit errors."""


class InputError(AuditError):
    """Malformed data, missing files, or violated operation preconditions."""


class AnchorError(InputError):
    """A gold answer (or mention) could not be located in the context."""


class CapabilityError(AuditError):
    """A gateway does not support the requested operation."""


class GatewayError(AuditError):
    """A model gateway failed while handling a request."""
