"""Structured error taxonomy of the squash pipeline and runtime.

A squashed image that decodes a flipped bit into plausible-looking
instructions is worse than one that crashes: the paper's runtime
overwrites live code with whatever the Huffman decoder produces, so a
corrupt blob, offset table, or codec table must surface as a *typed*
error before anything executes.  Every failure the decompression path
can diagnose raises a subclass of :class:`SquashError`, carrying the
context a fault report needs: the region being decoded, the bit offset
in the compressed stream, and the blob fingerprint.

The taxonomy::

    SquashError
    ├── CorruptBlobError        (also ValueError) checksum/decode failures
    │   └── ImageFormatError    (repro.program.imagefile) malformed files
    ├── TruncatedStreamError    (also EOFError) consuming bits past EOF
    ├── CodecTableError         (also ValueError) bad serialized code tables
    ├── OffsetTableError        function offset table out of bounds/order
    ├── BufferOverrunError      decoded region exceeds its buffer area
    ├── StubAreaOverflow        restore-stub area exhausted
    ├── WatchdogExpired         VM watchdog budget exhausted (hang guard)
    ├── CellFailure             an experiment cell lost to crash/timeout
    ├── BreakerOpen             circuit breaker refused a cell class
    ├── StoreDegraded           artifact store unusable; recompute instead
    ├── SpecError               (also ValueError) malformed api spec/config
    ├── ServiceOverloaded       job service shed the submission (load)
    │   └── TenantQuotaExceeded one tenant over its store byte budget
    ├── JobExpired              job deadline passed; cancelled, not late
    ├── JobFailed               job reached a terminal failure state
    └── UnknownJob              (also KeyError) no such job id

``CorruptBlobError``/``CodecTableError`` double as :class:`ValueError`
and ``TruncatedStreamError`` as :class:`EOFError` so long-standing
callers (and the paper-verbatim decode loops) that catch the ad-hoc
built-ins keep working.

The last three classes belong to the *execution* path rather than the
*data* path: :class:`WatchdogExpired` is raised by the VM's hang guard
(:class:`~repro.vm.machine.Machine` with a watchdog budget), while
:class:`CellFailure` and :class:`BreakerOpen` are raised by the
:mod:`repro.resilience` supervision layer when a sweep cell is lost
after bounded retries or its class's circuit breaker is open.
"""

from __future__ import annotations

__all__ = [
    "SquashError",
    "CorruptBlobError",
    "TruncatedStreamError",
    "CodecTableError",
    "OffsetTableError",
    "BufferOverrunError",
    "StubAreaOverflow",
    "WatchdogExpired",
    "CellFailure",
    "BreakerOpen",
    "StoreDegraded",
    "SpecError",
    "ServiceOverloaded",
    "TenantQuotaExceeded",
    "JobExpired",
    "JobFailed",
    "UnknownJob",
]


class SquashError(Exception):
    """Base of every squash-specific failure.

    ``region``, ``bit_offset`` and ``fingerprint`` are optional context
    attached at the raise site (or later via :meth:`with_context` as the
    error propagates up through layers that know more).
    """

    def __init__(
        self,
        message: str = "",
        *,
        region: int | None = None,
        bit_offset: int | None = None,
        fingerprint: str | None = None,
    ):
        self.message = message
        self.region = region
        self.bit_offset = bit_offset
        self.fingerprint = fingerprint
        super().__init__(self._render())

    def _render(self) -> str:
        context = [
            f"{name}={value}"
            for name, value in (
                ("region", self.region),
                ("bit_offset", self.bit_offset),
                ("fingerprint", self.fingerprint),
            )
            if value is not None
        ]
        if not context:
            return self.message
        return f"{self.message} ({', '.join(context)})"

    def with_context(
        self,
        *,
        region: int | None = None,
        bit_offset: int | None = None,
        fingerprint: str | None = None,
    ) -> "SquashError":
        """Fill in missing context fields and return self (for
        ``raise exc.with_context(...)`` at an outer layer)."""
        if self.region is None:
            self.region = region
        if self.bit_offset is None:
            self.bit_offset = bit_offset
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        self.args = (self._render(),)
        return self


class CorruptBlobError(SquashError, ValueError):
    """The compressed blob (or a checksummed area) failed validation:
    a CRC mismatch, an undecodable codeword, or a malformed file."""


class TruncatedStreamError(SquashError, EOFError):
    """A decode consumed bits past the end of the stream.

    The table decoder's lookahead window still zero-pads past EOF;
    *consuming* padded bits is what raises.
    """


class CodecTableError(SquashError, ValueError):
    """The serialized codec tables are malformed or fail their CRC.

    ``context`` names the offending context id when the failure is
    scoped to one context of a context-modeled stream — a per-context
    CRC mismatch, or a mapping entry routing to a context that does
    not exist.
    """

    def __init__(
        self, message: str = "", *, context: int | None = None, **kwargs
    ):
        self.context = context
        if context is not None and f"[context {context}]" not in message:
            message = f"{message} [context {context}]" if message else (
                f"codec table error [context {context}]"
            )
        super().__init__(message, **kwargs)


class OffsetTableError(SquashError):
    """The function offset table is out of bounds, non-monotonic, or
    disagrees with the descriptor/checksum."""


class BufferOverrunError(SquashError):
    """A decoded region does not fit its buffer area (wrong expanded
    size, or a base outside the runtime buffer)."""


class StubAreaOverflow(SquashError):
    """The reserved restore-stub area ran out of slots, and reclaiming
    zero-refcount stubs freed nothing."""


class WatchdogExpired(SquashError):
    """The VM's watchdog budget (steps plus runtime-service surcharge)
    ran out: a pathological image is spinning instead of finishing.

    Unlike :class:`~repro.vm.machine.FuelExhausted` — the caller-chosen
    per-run step limit — the watchdog is an environment-level hang
    guard (``REPRO_VM_WATCHDOG``) a sweep worker carries so no image
    can wedge it forever, and it is part of the typed taxonomy so
    supervisors classify it rather than time the worker out.
    """


class CellFailure(SquashError):
    """An experiment cell was lost after bounded retries.

    ``cell`` describes the (kind, name, scale, config) coordinates,
    ``attempts`` how many executions were tried, and ``reason`` the
    terminal failure kind (``timeout``, ``crash``, ``error``, or
    ``breaker-open``).  Exactly one cell is lost per failure; completed
    sibling cells stay persisted in the on-disk cache.
    """

    def __init__(
        self,
        message: str = "",
        *,
        cell: str | None = None,
        attempts: int = 0,
        reason: str = "",
        error_type: str = "",
        **kwargs,
    ):
        self.cell = cell
        self.attempts = attempts
        self.reason = reason
        self.error_type = error_type
        detail = []
        if cell:
            detail.append(f"cell {cell}")
        if reason:
            detail.append(f"reason {reason}")
        if attempts:
            detail.append(f"after {attempts} attempt(s)")
        if error_type:
            detail.append(f"last error {error_type}")
        if detail:
            message = f"{message} [{', '.join(detail)}]" if message else (
                ", ".join(detail)
            )
        super().__init__(message, **kwargs)


class BreakerOpen(SquashError):
    """The per-class circuit breaker is open: cells of this class have
    failed repeatedly and the supervisor refuses to resubmit them until
    the sweep ends (the cell is recorded, never silently dropped)."""

    def __init__(self, message: str = "", *, cls: str = "", **kwargs):
        self.cls = cls
        if cls and cls not in message:
            message = f"{message} [class {cls}]" if message else (
                f"breaker open for class {cls}"
            )
        super().__init__(message, **kwargs)


class StoreDegraded(SquashError):
    """The artifact store cannot serve this operation; recompute.

    Raised by :mod:`repro.store` when writes keep failing after bounded
    retries (dead or full disk), or when the store breaker is open and
    refusing to hammer it further.  ``reason`` carries the terminal
    failure kind (an errno name like ``enospc``/``eacces``, or
    ``breaker-open``).  The signal is *advisory*: callers catch it,
    skip the cache, and recompute — a degraded store slows a sweep
    down, it never fails one.
    """

    def __init__(self, message: str = "", *, reason: str = "", **kwargs):
        self.reason = reason
        if reason and reason not in message:
            message = f"{message} [reason {reason}]" if message else (
                f"store degraded: {reason}"
            )
        super().__init__(message, **kwargs)


class SpecError(SquashError, ValueError):
    """A facade spec or config carries a value the api cannot act on:
    an unknown benchmark name, a sweep kind outside ``size``/``time``,
    a non-positive step budget, malformed input words.  ``field`` names
    the offending spec field when one can be singled out."""

    def __init__(self, message: str = "", *, field: str = "", **kwargs):
        self.field = field
        if field and field not in message:
            message = f"{message} [field {field}]" if message else (
                f"invalid spec field {field}"
            )
        super().__init__(message, **kwargs)


class ServiceOverloaded(SquashError):
    """The job service refused this submission.

    Typed load shedding: the bounded admission queue is full, the
    tenant is over its cap, or the service is draining.  ``retry_after``
    is the service's estimate (seconds) of when a resubmission has a
    chance; clients back off instead of hammering.  An accepted job is
    never shed — shedding happens only at the admission door.
    """

    def __init__(
        self,
        message: str = "",
        *,
        reason: str = "",
        retry_after: float = 0.0,
        tenant: str = "",
        **kwargs,
    ):
        self.reason = reason
        self.retry_after = retry_after
        self.tenant = tenant
        detail = []
        if reason:
            detail.append(f"reason {reason}")
        if tenant:
            detail.append(f"tenant {tenant}")
        if retry_after:
            detail.append(f"retry after {retry_after:.2f}s")
        if detail:
            message = f"{message} [{', '.join(detail)}]" if message else (
                ", ".join(detail)
            )
        super().__init__(message, **kwargs)


class TenantQuotaExceeded(ServiceOverloaded):
    """One tenant is over its per-tenant store byte budget.

    A :class:`ServiceOverloaded` subclass because it is the same
    contract — typed admission shedding with a retry hint — scoped to
    one tenant instead of the whole service: the engine sheds the
    hog's submissions (``REPRO_TENANT_QUOTA_BYTES``) and the store
    refuses the hog's writes once tenant-scoped eviction cannot free
    enough of *its own* refs.  Other tenants are untouched; their
    working set is never evicted to make room for the hog.
    """

    def __init__(
        self,
        message: str = "",
        *,
        usage_bytes: int = 0,
        quota_bytes: int = 0,
        **kwargs,
    ):
        self.usage_bytes = usage_bytes
        self.quota_bytes = quota_bytes
        kwargs.setdefault("reason", "tenant-quota")
        if quota_bytes and f"{usage_bytes}/" not in message:
            detail = f"usage {usage_bytes}/{quota_bytes} bytes"
            message = f"{message} [{detail}]" if message else detail
        super().__init__(message, **kwargs)


class JobExpired(SquashError):
    """The job's deadline passed before it could finish.

    Deadlines propagate: a queued job whose deadline lapses is never
    started, and a running job whose work outlives the deadline has its
    result discarded — expired jobs are *cancelled*, not completed
    late.  Supervisor cells under an expiring job observe the
    tightened ``cell_deadline``.
    """

    def __init__(
        self,
        message: str = "",
        *,
        job_id: str = "",
        deadline: float | None = None,
        **kwargs,
    ):
        self.job_id = job_id
        self.deadline = deadline
        detail = []
        if job_id:
            detail.append(f"job {job_id}")
        if deadline is not None:
            detail.append(f"deadline {deadline:.2f}s")
        if detail:
            message = f"{message} [{', '.join(detail)}]" if message else (
                ", ".join(detail)
            )
        super().__init__(message, **kwargs)


class JobFailed(SquashError):
    """The job executed and failed terminally; ``error_type`` and the
    message carry the underlying failure for the submitting client."""

    def __init__(
        self,
        message: str = "",
        *,
        job_id: str = "",
        error_type: str = "",
        **kwargs,
    ):
        self.job_id = job_id
        self.error_type = error_type
        detail = []
        if job_id:
            detail.append(f"job {job_id}")
        if error_type:
            detail.append(f"error {error_type}")
        if detail:
            message = f"{message} [{', '.join(detail)}]" if message else (
                ", ".join(detail)
            )
        super().__init__(message, **kwargs)


class UnknownJob(SquashError, KeyError):
    """No job with this id exists in the engine or its journal."""

    def __init__(self, message: str = "", *, job_id: str = "", **kwargs):
        self.job_id = job_id
        if job_id and job_id not in message:
            message = f"{message} [job {job_id}]" if message else (
                f"unknown job {job_id}"
            )
        super().__init__(message, **kwargs)
