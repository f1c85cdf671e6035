"""Recovery shares (section 5.2).

The ledger secret is wrapped by the *ledger secret wrapping key*, which is
split k-of-n: each share is encrypted to one consortium member's public
encryption key and recorded in the ledger. During recovery, members decrypt
their shares and submit them to the recovering service; once ``k`` arrive,
the wrapping key is reconstructed inside the TEE, the previous ledger
secret unwrapped, and the old private state decrypted.
"""

from __future__ import annotations

import hashlib
import random

from repro.app.context import Caller, Request, RequestContext
from repro.crypto import ct_eq, ecies, shamir
from repro.crypto.aead import nonce_from_counter
from repro.crypto.fastaead import FastAEADKey
from repro.errors import CCFError, GovernanceError, RecoveryError
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore
from repro.node import maps
from repro.recovery.recovery import complete_private_recovery

_WRAP_DOMAIN = 0x57  # 'W': nonce domain for wrapped ledger secrets


def wrap_ledger_secret(wrapping_key: bytes, secret: LedgerSecret) -> dict:
    """Encrypt the ledger secret under the wrapping key for ledger storage."""
    key = FastAEADKey(wrapping_key)
    sealed = key.seal(
        nonce_from_counter(secret.generation, _WRAP_DOMAIN),
        secret.key_bytes,
        aad=secret.suite.encode(),
    )
    return {"generation": secret.generation, "wrapped": sealed.hex(), "suite": secret.suite}


def unwrap_ledger_secret(wrapping_key: bytes, row: dict) -> LedgerSecret:
    """Decrypt a wrapped ledger secret; raises on a wrong wrapping key —
    this is how the protocol detects insufficient/incorrect shares."""
    key = FastAEADKey(wrapping_key)
    key_bytes = key.open(
        nonce_from_counter(row["generation"], _WRAP_DOMAIN),
        bytes.fromhex(row["wrapped"]),
        aad=row["suite"].encode(),
    )
    return LedgerSecret(generation=row["generation"], key_bytes=key_bytes, suite=row["suite"])


def provision_recovery_shares(
    ctx: RequestContext,
    secret: LedgerSecret,
    members: dict[str, bytes],  # subject -> encryption public key
    threshold: int,
    rng: random.Random,
    previous_secrets: tuple[LedgerSecret, ...] = (),
) -> None:
    """Write the wrapped ledger secret(s) and the per-member encrypted
    shares into the governance maps (Table 3: ledger_secret,
    recovery_shares). On rekey, every *previous* generation is re-wrapped
    under the new wrapping key so a later disaster recovery can decrypt the
    entire ledger history, not just post-rekey entries."""
    if not 1 <= threshold <= len(members):
        raise RecoveryError(
            f"recovery threshold {threshold} invalid for {len(members)} members"
        )
    wrapping_key = rng.getrandbits(256).to_bytes(32, "big")
    ctx.put(maps.LEDGER_SECRET, "current", wrap_ledger_secret(wrapping_key, secret))
    for previous in previous_secrets:
        ctx.put(
            maps.LEDGER_SECRET,
            f"generation_{previous.generation}",
            wrap_ledger_secret(wrapping_key, previous),
        )
    shares = shamir.split(wrapping_key, threshold, len(members), rng)
    for (subject, enc_public), share in zip(sorted(members.items()), shares):
        plaintext = share.encode()
        box = ecies.encrypt(
            enc_public, plaintext, entropy=wrapping_key + subject.encode()
        )
        # The digest is a public commitment to the member's share: at
        # submission time it lets the node reject a wrong share *before* it
        # enters (and poisons) the Shamir reconstruction. It reveals nothing
        # about the share (preimage resistance over 32 random bytes) —
        # hashing is not an approved declassifier, so this judgement is
        # recorded for the taint analyzer's boundary map:
        # repro-taint: declassify=share-commitment
        ctx.put(
            maps.RECOVERY_SHARES,
            subject,
            {"share": box.hex(), "share_digest": hashlib.sha256(plaintext).hexdigest()},
        )
    # Former members' shares are useless (new wrapping key) and misleading:
    # drop them.
    for subject, _row in list(ctx.items(maps.RECOVERY_SHARES)):
        if subject not in members:
            ctx.remove(maps.RECOVERY_SHARES, subject)
    info = ctx.get(maps.SERVICE_INFO, "service") or {}
    ctx.put(maps.SERVICE_INFO, "service", dict(info, recovery_threshold=threshold))


def reprovision_recovery_shares(node, secret: LedgerSecret) -> None:
    """On the primary ``node``: re-split the wrapping key over the current
    consortium for ``secret`` (re-wrapping every other generation under
    it), as a transaction of its own with a signature right behind."""
    members = {
        subject: bytes.fromhex(row["public_key"])
        for subject, row in node.store.items(maps.MEMBERS_KEYS)
        if isinstance(row, dict)
    }
    if not members:
        return
    info = node.store.get(maps.SERVICE_INFO, "service") or {}
    threshold = min(info.get("recovery_threshold", 1), len(members))
    secrets: LedgerSecretStore = node.enclave.memory.get("ledger_secrets")
    previous = tuple(
        secrets.for_generation(g)
        for g in secrets.generations()
        if g != secret.generation
    )
    tx = node.store.begin()
    ctx = RequestContext(
        Request(path="/internal/rekey"), tx, Caller("node", node.node_id), node=node
    )
    provision_recovery_shares(
        ctx, secret, members, threshold, node.scheduler.rng,
        previous_secrets=previous,
    )
    node.append_local_entry(tx.write_set)
    node.request_signature(immediate=True)


def perform_rekey(node, generation: int) -> None:
    """A committed rekey request: derive the next ledger-secret generation
    in ``node``'s enclave from the shared service key. Every trusted node
    derives the same secret without it touching the network; new writes
    seal under it, old generations stay readable (Table 1)."""
    secrets: LedgerSecretStore = node.enclave.memory.get("ledger_secrets")
    if secrets is None or generation in secrets.generations():
        return
    service_key = node.enclave.memory.get("service_key")
    if service_key is None:
        return  # not yet trusted with the service key
    seed = service_key.scalar.to_bytes(32, "big") + b"|rekey"
    secrets.add(LedgerSecret.generate(seed, generation=generation))
    if node.consensus.is_primary:
        # Re-provision the wrapped secret + recovery shares for the new
        # generation so disaster recovery keeps working (section 5.2).
        reprovision_recovery_shares(node, secrets.current())


def handle_share_submission(ctx: RequestContext):
    """The ``/gov/submit_recovery_share`` endpoint body (section 5.2).

    Members submit their *decrypted* shares over their authenticated
    session; the node accumulates them in enclave memory and, at the
    threshold, reconstructs the wrapping key and unwraps the previous
    ledger secret.
    """
    node = ctx.node
    info = ctx.get(maps.SERVICE_INFO, "service") or {}
    if info.get("status") != maps.SERVICE_WAITING_FOR_SHARES:
        raise GovernanceError("service is not waiting for recovery shares")
    share_hex = ctx.request.body.get("share")
    if not isinstance(share_hex, str):
        raise GovernanceError("submission must carry the decrypted share hex")
    obs = node.scheduler.obs
    try:
        share_bytes = bytes.fromhex(share_hex)
        share = shamir.Share.decode(share_bytes)
    except (ValueError, CCFError) as exc:
        if obs is not None:
            obs.recovery_event(node.node_id, "share_rejected", reason="malformed")
        raise GovernanceError(f"malformed recovery share: {exc}") from exc
    # Check the share against its provisioned commitment *before* letting it
    # anywhere near the reconstruction: a wrong share is a typed rejection,
    # not a poisoned combine() that fails for everyone.
    row = ctx.get(maps.RECOVERY_SHARES, ctx.caller.identifier)
    expected_digest = row.get("share_digest") if isinstance(row, dict) else None
    if expected_digest is not None:
        if not ct_eq(hashlib.sha256(share_bytes).hexdigest(), expected_digest):
            if obs is not None:
                obs.recovery_event(
                    node.node_id, "share_rejected", reason="commitment-mismatch"
                )
            raise GovernanceError(
                "recovery share does not match this member's provisioned "
                "share commitment"
            )
    submitted = node.enclave.memory.get("recovery_submissions") or {}
    threshold = info.get("recovery_threshold", 1)
    previous = submitted.get(ctx.caller.identifier)
    if previous is not None and ct_eq(previous.encode(), share.encode()):
        # Duplicate resubmission (a retry over a flaky network): no-op.
        return {
            "submitted": len(submitted),
            "required": threshold,
            "recovered": False,
            "duplicate": True,
        }
    submitted[ctx.caller.identifier] = share
    node.enclave.memory.put("recovery_submissions", submitted)
    if obs is not None:
        obs.recovery_event(
            node.node_id, "share_submitted",
            submitted=len(submitted), required=threshold,
        )
    if len(submitted) < threshold:
        return {"submitted": len(submitted), "required": threshold, "recovered": False}
    # Threshold reached: reconstruct in-enclave and unwrap.
    wrapped_row = ctx.get(maps.LEDGER_SECRET, "current")
    if wrapped_row is None:
        raise RecoveryError("no wrapped ledger secret recorded")
    try:
        wrapping_key = shamir.combine(list(submitted.values()))
        recovered_secrets = [unwrap_ledger_secret(wrapping_key, wrapped_row)]
        # Older generations re-wrapped at rekey time (same wrapping key).
        for key, row in ctx.items(maps.LEDGER_SECRET):
            if isinstance(key, str) and key.startswith("generation_"):
                recovered_secrets.append(unwrap_ledger_secret(wrapping_key, row))
    except (CCFError, ValueError, KeyError, TypeError) as exc:
        raise RecoveryError(f"share reconstruction failed: {exc}") from exc
    if obs is not None:
        obs.recovery_event(
            node.node_id, "reconstructed", generations=len(recovered_secrets)
        )
    complete_private_recovery(node, recovered_secrets)
    ctx.put(maps.SERVICE_INFO, "service", dict(info, status=maps.SERVICE_RECOVERING))
    return {"submitted": len(submitted), "required": threshold, "recovered": True}
