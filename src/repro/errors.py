"""Exception hierarchy for the CCF reproduction.

Every error raised by the framework derives from :class:`CCFError`, so
applications embedding the framework can catch a single base class. The
subclasses mirror the distinct failure domains of the paper: cryptographic
verification, ledger integrity, consensus, governance, and user-facing
request handling.
"""

from __future__ import annotations


class CCFError(Exception):
    """Base class for all framework errors."""


class CryptoError(CCFError):
    """A cryptographic operation failed (bad key, malformed input)."""


class VerificationError(CryptoError):
    """A signature, MAC, proof, or attestation failed verification."""


class IntegrityError(CCFError):
    """Ledger or storage content failed an integrity check.

    Raised when the untrusted host returns data whose hashes, signatures,
    or Merkle proofs do not match — e.g. a truncated or tampered ledger.
    """


class LedgerError(CCFError):
    """Structural problem with the ledger (bad framing, missing entries)."""


class KVError(CCFError):
    """Key-value store misuse (unknown map, type error, conflict)."""


class TransactionConflictError(KVError):
    """Optimistic transaction could not commit due to a concurrent write."""


class ConsensusError(CCFError):
    """Protocol violation or invalid state transition in consensus."""


class NotPrimaryError(ConsensusError):
    """A primary-only operation was attempted on a node that is not (or is
    no longer) the primary — an environmental race, not a bug."""


class ConfigurationError(CCFError):
    """Invalid node or service configuration."""


class GovernanceError(CCFError):
    """A governance operation (proposal, ballot, action) was rejected."""


class AuthenticationError(CCFError):
    """Caller failed the endpoint's declared authentication policy."""


class AuthorizationError(CCFError):
    """Caller authenticated but is not permitted to perform the action."""


class AttestationError(VerificationError):
    """A TEE attestation quote failed verification or policy checks."""


class RecoveryError(CCFError):
    """Disaster recovery could not proceed (bad shares, wrong state)."""


class ServiceIdentityChangedError(CCFError):
    """The service presents a different identity than the one the client
    pinned. Expected after a disaster recovery (section 5.2): the fresh
    identity is precisely what makes a best-effort recovery — and any
    rollback it implies — *detectable* rather than silent."""


class LostWriteError(CCFError):
    """A transaction this client saw acknowledged (or holds a receipt for)
    is no longer committed on the service it reconnected to — a detected
    rollback of the client's own write. ``txid`` identifies the lost
    transaction so auditors can compare reported losses against ground
    truth without parsing the message."""

    def __init__(self, message: str, txid: str | None = None):
        super().__init__(message)
        self.txid = txid


class ServiceUnavailableError(CCFError):
    """The service cannot currently process the request (e.g. no primary)."""


class ReadBehindError(CCFError):
    """The state a node serves does not yet include a read's ``after_txid``
    floor. Retryable: the client can retry here after replication catches
    up, or read elsewhere. Never raised in place of serving — it exists so
    a read with a floor is either provably fresh or *typed* stale, not
    silently stale. ``after_txid`` carries the requested floor for
    diagnostics."""

    def __init__(self, message: str, after_txid: str | None = None):
        super().__init__(message)
        self.after_txid = after_txid


class ReadRolledBackError(CCFError):
    """A read's ``after_txid`` floor refers to a transaction that can no
    longer commit (superseded after an election). Not retryable as-is: the client's speculative write was
    rolled back, and any state derived from it must be reconciled."""

    def __init__(self, message: str, after_txid: str | None = None):
        super().__init__(message)
        self.after_txid = after_txid


class JSError(CCFError):
    """An error raised by (or inside) the embedded mini-JS interpreter."""


class JSReferenceError(JSError):
    """An unresolved identifier in the mini-JS interpreter.

    Distinct from :class:`JSError` so ``typeof`` can treat *only* unresolved
    names as ``"undefined"`` without swallowing real interpreter failures
    (budget exhaustion, type errors) raised while evaluating its operand.
    """
