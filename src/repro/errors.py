"""Exception hierarchy for the repro XPath engine.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class. The split mirrors the pipeline stages:
XML parsing, XPath parsing, static analysis/normalization, and evaluation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XMLSyntaxError(ReproError):
    """Raised when an XML document is not well-formed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DocumentFrozenError(ReproError):
    """Raised when mutating a document after it has been finalized.

    Evaluation relies on the pre/post order numbering computed by
    :meth:`repro.xml.document.Document.finalize`; mutating afterwards would
    silently corrupt every axis computation, so it is a hard error.
    """


class DocumentNotFinalizedError(ReproError):
    """Raised when evaluating against a document that was never finalized."""


class XPathSyntaxError(ReproError):
    """Raised when an XPath query string cannot be parsed.

    Carries the 0-based character ``offset`` into the query when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class XPathTypeError(ReproError):
    """Raised by static analysis when an expression is ill-typed.

    XPath 1.0 gives every expression a static type; operations such as
    location steps applied to a number operand have no defined semantics
    and are rejected before evaluation.
    """


class UnknownFunctionError(XPathTypeError):
    """Raised when a query calls a function not in the core library."""

    def __init__(self, name: str):
        self.function_name = name
        super().__init__(f"unknown XPath function: {name}()")


class WrongArityError(XPathTypeError):
    """Raised when a core library function is called with a bad arity."""

    def __init__(self, name: str, got: int, expected: str):
        self.function_name = name
        super().__init__(f"function {name}() called with {got} argument(s), expected {expected}")


class UnboundVariableError(ReproError):
    """Raised when the query references a variable with no binding.

    Per Section 2.2 of the paper, variables are replaced by the constant
    value of the input variable binding before evaluation; a missing
    binding is therefore a static error.
    """

    def __init__(self, name: str):
        self.variable_name = name
        super().__init__(f"unbound XPath variable: ${name}")


class EvaluationError(ReproError):
    """Raised for errors that only manifest during evaluation."""


class DocumentStoreError(ReproError):
    """Raised by :mod:`repro.xml.store` and :mod:`repro.xml.snapshot` for
    missing documents, format problems, or corrupt files.

    Lives here (rather than in the store module) so the binary snapshot
    codec can raise it without importing the store layer that sits
    above it; :mod:`repro.xml.store` re-exports it for compatibility.
    """


class SnapshotCorruptError(DocumentStoreError):
    """Raised when a binary snapshot blob (or a :class:`~repro.xml.store.
    DocumentStore` file) fails to decode: truncation, bad magic or
    version, checksum mismatch, sections that disagree about their
    sizes, or — under the full check — node tables, string tables or
    partitions that do not describe a document.

    Carries the byte ``offset`` into the blob at which decoding stopped
    when known, so a corrupt-file report points at the damage instead
    of leaking ``struct``/checksum internals.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


class FragmentViolationError(ReproError):
    """Raised when an algorithm is forced onto a query outside its fragment.

    For example, requesting ``algorithm='corexpath'`` for a query that uses
    ``position()`` (not in Core XPath, Definition 12 of the paper).
    """


class UnknownAlgorithmError(ReproError, ValueError):
    """Raised when evaluation is requested with an algorithm name that is
    not in :data:`repro.engine.ALGORITHMS`.

    Also subclasses :class:`ValueError` so callers that predate the typed
    hierarchy keep working. Carries the offending ``algorithm`` and the
    valid ``choices``.
    """

    def __init__(self, algorithm: str, choices):
        self.algorithm = algorithm
        self.choices = tuple(choices)
        # args mirror the constructor signature so pickling/copying works
        # (worker pools re-raise exceptions across process boundaries).
        super().__init__(algorithm, self.choices)

    def __str__(self) -> str:
        return f"unknown algorithm {self.algorithm!r}; choose from {self.choices}"


# ----------------------------------------------------------------------
# Serving layer (repro.serve)
# ----------------------------------------------------------------------


class ServeError(ReproError):
    """Base class for serving-layer failures (:mod:`repro.serve`)."""


class ProtocolError(ServeError):
    """Raised for malformed protocol frames or transport failures: a
    line that is not a JSON object, an oversized frame, or a connection
    that dropped mid-exchange."""


class OverloadError(ServeError):
    """Raised when admission control refuses a request.

    ``retry_after`` is the server's backoff hint in seconds — set when
    retrying can help (queue pressure), ``None`` when it cannot (the
    priced cost exceeds the request's own deadline, so the same request
    would be refused again).
    """

    def __init__(self, message: str, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


class RateLimitedError(OverloadError):
    """Raised when a client's token-bucket query rate is exhausted.
    ``retry_after`` is the time until the next token."""


class QuotaExceededError(ServeError):
    """Raised when a per-client quota (registered bytes, registered
    documents, or in-flight queries) would be exceeded."""

    def __init__(self, message: str, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


class DeadlineExceededError(ServeError):
    """Raised when a query's deadline expired before evaluation finished.

    For batches, ``completed``/``total`` count the result cells that did
    arrive before the deadline (the partial results are surfaced, never
    dropped silently).
    """

    def __init__(
        self,
        message: str,
        elapsed: float | None = None,
        completed: int | None = None,
        total: int | None = None,
    ):
        self.elapsed = elapsed
        self.completed = completed
        self.total = total
        super().__init__(message)


class RemoteError(ServeError):
    """A server-reported error relayed by the client library, carrying
    the server's stable protocol ``code`` (see :data:`ERROR_CODES`) for
    errors that have no richer client-side class."""

    def __init__(self, code: str, message: str):
        self.protocol_code = code
        super().__init__(f"[{code}] {message}")


# ----------------------------------------------------------------------
# Stable protocol error codes
# ----------------------------------------------------------------------

#: Most-specific-first mapping from exception class to the stable wire
#: code the serving protocol reports (and the CLI keys exit codes on).
#: Subclasses must precede their bases — :func:`error_code` takes the
#: first match — and the table ends at :class:`ReproError`, so every
#: library error maps to *some* code.
ERROR_CODES = (
    (XPathSyntaxError, "QUERY_SYNTAX"),
    (UnknownFunctionError, "UNKNOWN_FUNCTION"),
    (WrongArityError, "WRONG_ARITY"),
    (XPathTypeError, "QUERY_TYPE"),
    (XMLSyntaxError, "XML_SYNTAX"),
    (DocumentFrozenError, "DOCUMENT_FROZEN"),
    (DocumentNotFinalizedError, "DOCUMENT_NOT_FINALIZED"),
    (UnboundVariableError, "UNBOUND_VARIABLE"),
    (EvaluationError, "EVALUATION"),
    (SnapshotCorruptError, "SNAPSHOT_CORRUPT"),
    (DocumentStoreError, "DOCUMENT_STORE"),
    (FragmentViolationError, "FRAGMENT_VIOLATION"),
    (UnknownAlgorithmError, "UNKNOWN_ALGORITHM"),
    (DeadlineExceededError, "DEADLINE"),
    (RateLimitedError, "RATE_LIMITED"),
    (OverloadError, "OVERLOAD"),
    (QuotaExceededError, "QUOTA"),
    (ProtocolError, "PROTOCOL"),
    (ServeError, "SERVE"),
    (ReproError, "ERROR"),
)

#: Codes the daemon emits that have no 1:1 client-side exception class
#: (they describe request-shape problems, not library failures).
EXTRA_PROTOCOL_CODES = frozenset(
    {"UNKNOWN_DOCUMENT", "UNKNOWN_VERB", "SHUTTING_DOWN", "FRAME_TOO_LARGE", "INTERNAL"}
)

#: Every stable code the protocol can put on the wire.
PROTOCOL_CODES = frozenset(code for _, code in ERROR_CODES) | EXTRA_PROTOCOL_CODES


def error_code(error: ReproError) -> str:
    """The stable protocol code for a library error.

    A relayed :class:`RemoteError` keeps the server's original code;
    everything else takes the first (most-specific) match in
    :data:`ERROR_CODES`.
    """
    code = getattr(error, "protocol_code", None)
    if code is not None:
        return code
    for error_class, code in ERROR_CODES:
        if isinstance(error, error_class):
            return code
    return "ERROR"
