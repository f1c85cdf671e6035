"""Endpoint authentication policies (section 3.1).

"Each CCF endpoint declares how callers should be authenticated. Each
invocation is first checked by CCF against these declared policies and the
application logic is only called if the caller passes the checks."

Policies:

- ``no_auth`` — anonymous.
- ``user_cert`` / ``member_cert`` — the caller's certificate must appear in
  the users/members governance map. (The TLS layer's proof of key
  possession is assumed, as in the paper's client-authenticated TLS.)
- ``user_signature`` — the request carries a COSE-Sign1-style envelope
  signed by a registered user or member; the envelope payload must match
  the request body, binding the signature to this exact request.
- ``jwt`` — a bearer token verified against governance-registered issuers.
"""

from __future__ import annotations

from repro.app.context import Caller, Request
from repro.crypto.certs import Certificate
from repro.crypto.cose import SignedRequest
from repro.crypto.ecdsa import VerifyingKey
from repro.errors import AuthenticationError, VerificationError
from repro.kv.store import KVStore
from repro.node import jwt as jwt_module
from repro.node import maps


def _cert_from_credentials(request: Request) -> Certificate:
    cert_dict = request.credentials.get("certificate")
    if not isinstance(cert_dict, dict):
        raise AuthenticationError("endpoint requires a client certificate")
    try:
        return Certificate.from_dict(cert_dict)
    except (KeyError, ValueError) as exc:
        raise AuthenticationError(f"malformed certificate: {exc}") from exc


# Cache of certificates that already passed self-signature verification,
# keyed by (to-be-signed bytes, signature). Real CCF verifies the client
# certificate once per TLS handshake, not per request; this cache plays the
# same role for the simulated sessions. Verification is pure, so caching
# cannot change outcomes. (Certificate.from_dict and VerifyingKey.decode
# are themselves memoized, so the decoded key objects — and their fastec
# precomputation tables — are reused across requests too.) Counters are
# exported via repro.obs.metrics as ``fastpath.cert_verify_cache.*``.
_VERIFIED_CERTS: set[tuple[bytes, bytes]] = set()
_VERIFIED_CERTS_MAX = 10_000
AUTH_STATS = {"cert_verify_cache.hits": 0, "cert_verify_cache.misses": 0}


def _verify_self_signed_cached(certificate: Certificate) -> None:
    key = (certificate.to_be_signed(), certificate.signature)
    if key in _VERIFIED_CERTS:
        AUTH_STATS["cert_verify_cache.hits"] += 1
        return
    certificate.verify_self_signed()
    AUTH_STATS["cert_verify_cache.misses"] += 1
    if len(_VERIFIED_CERTS) >= _VERIFIED_CERTS_MAX:
        _VERIFIED_CERTS.clear()
    _VERIFIED_CERTS.add(key)


def _check_registered_cert(
    store: KVStore, map_name: str, certificate: Certificate, kind: str
) -> Caller:
    """Rows in the users/members maps are keyed by subject name and hold the
    registered certificate; the presented certificate must match it exactly."""
    record = store.get(map_name, certificate.subject)
    if not isinstance(record, dict) or record.get("certificate") != certificate.to_dict():
        raise AuthenticationError(f"certificate not registered as a {kind}")
    try:
        _verify_self_signed_cached(certificate)
    except VerificationError as exc:
        raise AuthenticationError(f"invalid {kind} certificate: {exc}") from exc
    return Caller(kind=kind, identifier=certificate.subject, data=dict(record))


def _jwt_issuer_of(token: str) -> str:
    """Extract the unverified ``iss`` claim to select the issuer key."""
    import base64
    import json

    try:
        payload_b64 = token.split(".")[1]
        padding = "=" * (-len(payload_b64) % 4)
        payload = json.loads(base64.urlsafe_b64decode(payload_b64 + padding))
        return payload.get("iss", "")
    except (IndexError, ValueError) as exc:
        raise AuthenticationError(f"malformed JWT: {exc}") from exc


def authenticate(request: Request, policy: str, store: KVStore) -> Caller:
    """Run ``policy`` against the request, reading the governance maps of
    ``store``; return the authenticated caller or raise
    :class:`AuthenticationError`."""
    if policy == "no_auth":
        return Caller(kind="any", identifier="anonymous")

    if policy == "user_cert":
        return _check_registered_cert(
            store, maps.USERS_CERTS, _cert_from_credentials(request), "user"
        )

    if policy == "member_cert":
        return _check_registered_cert(
            store, maps.MEMBERS_CERTS, _cert_from_credentials(request), "member"
        )

    if policy == "user_signature":
        envelope_dict = request.credentials.get("signed_request")
        if not isinstance(envelope_dict, dict):
            raise AuthenticationError("endpoint requires a signed request")
        envelope = SignedRequest.from_dict(envelope_dict)
        # Look the signer up among users first, then members (members may
        # invoke user-signed endpoints, e.g. governance).
        for map_name, kind in ((maps.USERS_CERTS, "user"), (maps.MEMBERS_CERTS, "member")):
            record = store.get(map_name, envelope.signer)
            if record is not None:
                certificate = Certificate.from_dict(record["certificate"])
                try:
                    envelope.verify(certificate)
                except VerificationError as exc:
                    raise AuthenticationError(f"bad request signature: {exc}") from exc
                if envelope.payload_json() != request.body:
                    raise AuthenticationError(
                        "signed payload does not match the request body"
                    )
                return Caller(kind=kind, identifier=envelope.signer, data=dict(record))
        raise AuthenticationError(f"unknown signer {envelope.signer!r}")

    if policy == "jwt":
        token = request.credentials.get("jwt")
        if not isinstance(token, str):
            raise AuthenticationError("endpoint requires a JWT bearer token")
        issuer = _jwt_issuer_of(token)
        issuers: dict[str, VerifyingKey] = {}
        row = store.get(maps.JWT_ISSUERS, issuer)
        if row is not None:
            issuers[issuer] = VerifyingKey.decode(bytes.fromhex(row["public_key"]))
        claims = jwt_module.verify_token(token, issuers)
        return Caller(kind="jwt", identifier=str(claims.get("sub")), data=claims)

    raise AuthenticationError(f"unknown auth policy {policy!r}")
