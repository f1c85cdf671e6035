"""Request/response types and the handler execution context."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import AuthorizationError
from repro.kv.tx import Transaction

_request_counter = itertools.count(1)


@dataclass
class Request:
    """A user request to an application or built-in endpoint.

    ``credentials`` carries whatever the endpoint's auth policy requires:
    a certificate dict for cert auth, a signed envelope dict for request
    signing, a JWT string, or nothing.
    """

    path: str  # e.g. "/app/log" or "/node/tx"
    body: dict[str, Any] = field(default_factory=dict)
    credentials: dict[str, Any] = field(default_factory=dict)
    request_id: int = field(default_factory=lambda: next(_request_counter))
    client_id: str = ""
    session_id: str = ""
    # Read floor: serve this read only from state that includes the given
    # TxID ("view.seqno"), else answer with a typed retryable "behind"
    # error — never a silent stale read.
    after_txid: str = ""


@dataclass
class Response:
    """The reply to a request. ``txid`` is set for executed transactions —
    the user can poll /node/tx with it to learn the commit status."""

    request_id: int
    status: int = 200
    body: Any = None
    txid: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass(frozen=True)
class Caller:
    """The authenticated identity of a request's sender."""

    kind: str  # "user", "member", "node", "any", or "jwt"
    identifier: str  # certificate fingerprint / subject / token subject
    data: dict = field(default_factory=dict)


class RequestContext:
    """Everything a handler may touch during one endpoint invocation."""

    def __init__(
        self,
        request: Request,
        tx: Transaction,
        caller: Caller,
        node: "Any" = None,
    ):
        self.request = request
        self.tx = tx
        self.caller = caller
        self.node = node  # the hosting CCFNode (indexer/historical access)
        self.claims: dict | None = None

    # ------------------------------------------------------------------
    # KV convenience wrappers

    def get(self, map_name: str, key: Any, default: Any = None) -> Any:
        return self.tx.get(map_name, key, default)

    def put(self, map_name: str, key: Any, value: Any) -> None:
        self.tx.put(map_name, key, value)

    def remove(self, map_name: str, key: Any) -> None:
        self.tx.remove(map_name, key)

    def items(self, map_name: str):
        return self.tx.items(map_name)

    # ------------------------------------------------------------------
    # Receipt claims (section 3.5)

    def attach_claims(self, claims: dict) -> None:
        """Attach application claims to this transaction; they become part
        of the Merkle leaf and are verifiable through the receipt."""
        self.claims = claims

    # ------------------------------------------------------------------
    # Authorization helper

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            raise AuthorizationError(message)

    # ------------------------------------------------------------------
    # Historical queries & indexing (section 3.4)

    def historical_entries(self, start_seqno: int, end_seqno: int):
        """Decrypted write sets of committed entries in the range."""
        if self.node is None:
            raise AuthorizationError("historical queries need a hosting node")
        return self.node.historical_range(start_seqno, end_seqno)

    def index(self, name: str):
        """Look up an application-registered indexing strategy by name."""
        if self.node is None:
            raise AuthorizationError("indexing needs a hosting node")
        return self.node.indexer.strategy(name)
