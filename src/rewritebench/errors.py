"""Exception types shared across the workbench."""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


class DomainError(WorkbenchError):
    """An operation was applied to input outside its mathematical domain."""


class ContractError(WorkbenchError):
    """A caller violated an interface contract (API misuse, not bad data)."""


class ConfigError(WorkbenchError):
    """Invalid or inconsistent configuration."""


class IngestError(WorkbenchError):
    """Fatal problem in an input collection file."""

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, offset: int | None = None):
        parts = [message]
        if path is not None:
            parts.append(f"path={path}")
        if line is not None:
            parts.append(f"line={line}")
        if offset is not None:
            parts.append(f"byte_offset={offset}")
        super().__init__(" ".join(parts))
        self.path = path
        self.line = line
        self.offset = offset


class EndpointError(WorkbenchError):
    """A remote endpoint kept failing after the configured retries."""


class StoreError(WorkbenchError):
    """A persistence operation failed."""


class CacheMissError(WorkbenchError):
    """A stage read a vector that the embedding cache does not hold."""
