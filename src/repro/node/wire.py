"""Non-consensus wire messages: client traffic, forwarding, join protocol.

These travel over the simulated network between clients, hosts, and nodes.
Consensus traffic is sealed separately (:mod:`repro.net.channels`); client
traffic rides the (simulated) TLS session to the node, so objects here are
delivered as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.app.context import Request, Response
from repro.tee.attestation import AttestationQuote


@dataclass(frozen=True)
class ClientRequest:
    """A user request addressed to a node."""

    request: Request


@dataclass(frozen=True)
class ClientResponse:
    """Node → user: the reply to a ClientRequest."""

    response: Response


@dataclass(frozen=True)
class ForwardedRequest:
    """Backup → primary: a write request forwarded on behalf of a user
    (section 4.3). The origin node keeps the client session and relays the
    primary's answer back."""

    request: Request
    origin_node: str


@dataclass(frozen=True)
class ForwardedResponse:
    """Primary → origin backup: the answer to relay to the user."""

    response: Response
    origin_request_id: int


@dataclass(frozen=True)
class JoinRequest:
    """New node → an existing node: request to join the service (section 4.4
    / Figure 9's point B). Carries the attestation quote binding the new
    node's identity key, plus its channel key."""

    node_id: str
    quote: AttestationQuote
    node_public_key: bytes  # encoded ECDSA verifying key (in quote report data)
    dh_public: bytes
    forwarded: bool = False  # relayed once by a backup toward its leader


@dataclass(frozen=True)
class JoinResponse:
    """Primary → new node: acceptance with everything needed to participate.

    Sent only after the quote verified against the governance-approved code
    ids; contains the service identity, the ledger secrets (all
    generations), the latest snapshot's manifest (if any) with its receipt,
    and the node certificate endorsed by the service identity.
    """

    accepted: bool
    error: str = ""
    service_certificate: dict | None = None
    node_certificate: dict | None = None
    # The service private key and ledger secrets, sealed under the joiner's
    # channel key (they must never transit the untrusted network in the
    # clear): (sender, counter, box).
    sealed_secrets: tuple = ()
    # State transfer: when the primary holds a snapshot it ships the signed
    # *manifest* (format, base seqno, secret generation, per-map chunk-id
    # listing, and the ledger prefix as a Merkle frontier plus view
    # starts), covered by ``snapshot_receipt`` via its canonical digest;
    # the joiner then pulls only the sealed chunks it doesn't already hold
    # with one StateChunkRequest — private maps never transit (or rest on)
    # the host unsealed. With no manifest the joiner
    # starts from an empty store and replays the ledger.
    snapshot_manifest: dict | None = None
    snapshot_receipt: dict | None = None
    current_nodes: tuple = ()  # ids of the current configuration
    config_base_seqno: int = 0
    peer_dh_publics: dict = field(default_factory=dict)  # node id -> DH public


@dataclass(frozen=True)
class StateChunkRequest:
    """Joiner → admitting primary: fetch sealed state chunks by content
    address. Sent once after the manifest verified, naming every chunk the
    joiner lacks (a prior partial join or the local snapshot cache supplies
    the rest); sent again only for chunks a lost or rejected response
    carried."""

    node_id: str
    base_seqno: int  # manifest base the ids were taken from
    chunk_ids: tuple = ()


@dataclass(frozen=True)
class StateChunkResponse:
    """Primary → joiner: some of the requested sealed chunks, as (id, bytes)
    pairs. One request is answered by back-to-back responses of
    ``JOIN_CHUNK_BATCH`` chunks. Ids the serving node no longer holds come
    back in ``missing`` on the first — the joiner falls back to a fresh
    join (full transfer) rather than stalling."""

    base_seqno: int
    chunks: tuple = ()  # ((chunk_id, sealed_bytes), ...)
    missing: tuple = ()
