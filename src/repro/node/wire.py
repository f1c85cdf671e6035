"""Non-consensus wire messages: client traffic, forwarding, join protocol.

These travel over the simulated network between clients, hosts, and nodes.
Consensus traffic is sealed separately (:mod:`repro.net.channels`); client
traffic rides the (simulated) TLS session to the node, so objects here are
delivered as-is. A primary's JoinResponse and the chunks it pushes behind
it travel on the ordered stream to the joiner, like consensus frames;
client and forwarding messages, and join requests, travel unordered.
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
    # Ids of the chunks in the joiner's content-addressed cache whose bytes
    # still match their address. Host-visible and untrusted: it decides
    # which snapshot chunks the primary pushes, never which the joiner
    # accepts.
    held_chunks: tuple = ()
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
    # starts), covered by ``snapshot_receipt`` via its canonical digest,
    # and pushes the sealed chunks the request did not list as held right
    # behind it — private maps never transit (or rest on) the host
    # unsealed. With no manifest the joiner starts from an empty store and
    # replays the ledger.
    snapshot_manifest: dict | None = None
    snapshot_receipt: dict | None = None
    current_nodes: tuple = ()  # ids of the current configuration
    config_base_seqno: int = 0
    peer_dh_publics: dict = field(default_factory=dict)  # node id -> DH public


@dataclass(frozen=True)
class StateChunkResponse:
    """Primary → joiner: sealed snapshot chunks as (id, bytes) pairs. The
    primary admitting a joiner pushes every chunk it lacks as back-to-back
    responses of ``JOIN_CHUNK_BATCH`` chunks, on the ordered stream right
    behind the JoinResponse. Manifest ids the primary cannot produce come
    back in ``missing`` on the first — the joiner falls back to a fresh
    join (full transfer) rather than stalling."""

    base_seqno: int
    chunks: tuple = ()  # ((chunk_id, sealed_bytes), ...)
    missing: tuple = ()
