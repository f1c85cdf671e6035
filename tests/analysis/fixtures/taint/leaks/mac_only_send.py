"""Leak shape: a secret sent in the clear beside a tag that authenticates
it. An authenticate-only frame protects integrity, not secrecy, so putting
the secret into the tag's associated data still ships it readable."""

from repro.crypto.aead import nonce_from_counter
from repro.crypto.fastaead import FastAEADKey
from repro.ledger.secrets import LedgerSecret


def exfiltrate(network, seed: bytes, key: FastAEADKey):
    secret = LedgerSecret.generate(seed).key_bytes
    nonce = nonce_from_counter(0)
    network.send("n0", "n1", secret + key.seal(nonce, b"", aad=secret))
