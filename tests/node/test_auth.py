"""Unit tests for authentication policies, JWT, and the indexer."""

import pytest

from repro.app.context import Request
from repro.crypto.certs import Identity
from repro.crypto.cose import sign_request
from repro.crypto.ecdsa import SigningKey
from repro.errors import AuthenticationError
from repro.kv.store import KVStore
from repro.kv.tx import WriteSet
from repro.ledger.entry import TxID
from repro.node import maps
from repro.node.auth import authenticate
from repro.node.indexer import Indexer, KeyWriteIndex, MapCountIndex
from repro.node.jwt import issue_token, verify_token


@pytest.fixture
def store():
    """A store with one registered user and one member."""
    kv = KVStore()
    ws = WriteSet()
    user = Identity.create("u0", b"u0")
    member = Identity.create("m0", b"m0")
    ws.put(maps.USERS_CERTS, "u0", {"certificate": user.certificate.to_dict()})
    ws.put(maps.MEMBERS_CERTS, "m0", {"certificate": member.certificate.to_dict()})
    issuer_key = SigningKey.generate(b"idp")
    ws.put(maps.JWT_ISSUERS, "https://idp",
           {"public_key": issuer_key.public_key.encode().hex()})
    kv.apply_write_set(ws, 1)
    return kv, user, member, issuer_key


class TestNoAuth:
    def test_anonymous(self, store):
        kv, *_ = store
        caller = authenticate(Request(path="/x"), "no_auth", kv)
        assert caller.kind == "any"


class TestCertAuth:
    def test_registered_user(self, store):
        kv, user, *_ = store
        request = Request(path="/x", credentials={
            "certificate": user.certificate.to_dict()})
        caller = authenticate(request, "user_cert", kv)
        assert caller.kind == "user"
        assert caller.identifier == "u0"

    def test_member_cert_not_valid_as_user(self, store):
        kv, _user, member, _ = store
        request = Request(path="/x", credentials={
            "certificate": member.certificate.to_dict()})
        with pytest.raises(AuthenticationError):
            authenticate(request, "user_cert", kv)

    def test_unregistered_cert_rejected(self, store):
        kv, *_ = store
        stranger = Identity.create("u0", b"different-key")  # same subject!
        request = Request(path="/x", credentials={
            "certificate": stranger.certificate.to_dict()})
        with pytest.raises(AuthenticationError):
            authenticate(request, "user_cert", kv)

    def test_missing_certificate(self, store):
        kv, *_ = store
        with pytest.raises(AuthenticationError):
            authenticate(Request(path="/x"), "user_cert", kv)

    def test_malformed_certificate(self, store):
        kv, *_ = store
        request = Request(path="/x", credentials={"certificate": {"bad": 1}})
        with pytest.raises(AuthenticationError):
            authenticate(request, "user_cert", kv)


class TestSignatureAuth:
    def test_member_signed_request(self, store):
        kv, _user, member, _ = store
        body = {"actions": [{"name": "set_user"}]}
        envelope = sign_request(member, body)
        request = Request(path="/gov/propose", body=body,
                          credentials={"signed_request": envelope.to_dict()})
        caller = authenticate(request, "user_signature", kv)
        assert caller.kind == "member"
        assert caller.identifier == "m0"

    def test_payload_must_match_body(self, store):
        kv, _user, member, _ = store
        envelope = sign_request(member, {"amount": 10})
        request = Request(path="/x", body={"amount": 999_999},
                          credentials={"signed_request": envelope.to_dict()})
        with pytest.raises(AuthenticationError, match="does not match"):
            authenticate(request, "user_signature", kv)

    def test_unknown_signer_rejected(self, store):
        kv, *_ = store
        stranger = Identity.create("m9", b"m9")
        envelope = sign_request(stranger, {"op": 1})
        request = Request(path="/x", body={"op": 1},
                          credentials={"signed_request": envelope.to_dict()})
        with pytest.raises(AuthenticationError, match="unknown signer"):
            authenticate(request, "user_signature", kv)

    def test_user_may_sign_requests_too(self, store):
        """Section 6.4: optional support for user request signing."""
        kv, user, _member, _ = store
        envelope = sign_request(user, {"op": 1})
        request = Request(path="/x", body={"op": 1},
                          credentials={"signed_request": envelope.to_dict()})
        caller = authenticate(request, "user_signature", kv)
        assert caller.kind == "user"


class TestJWT:
    def test_valid_token(self, store):
        kv, _u, _m, issuer_key = store
        token = issue_token(issuer_key, "https://idp", "alice", {"role": "admin"})
        request = Request(path="/x", credentials={"jwt": token})
        caller = authenticate(request, "jwt", kv)
        assert caller.identifier == "alice"
        assert caller.data["role"] == "admin"

    def test_unknown_issuer(self, store):
        kv, *_ = store
        rogue = SigningKey.generate(b"rogue")
        token = issue_token(rogue, "https://rogue", "mallory")
        request = Request(path="/x", credentials={"jwt": token})
        with pytest.raises(AuthenticationError):
            authenticate(request, "jwt", kv)

    def test_tampered_payload(self, store):
        kv, _u, _m, issuer_key = store
        token = issue_token(issuer_key, "https://idp", "alice")
        header, payload, signature = token.split(".")
        import base64, json

        forged_payload = base64.urlsafe_b64encode(
            json.dumps({"iss": "https://idp", "sub": "mallory"}).encode()
        ).rstrip(b"=").decode()
        forged = f"{header}.{forged_payload}.{signature}"
        request = Request(path="/x", credentials={"jwt": forged})
        with pytest.raises(AuthenticationError):
            authenticate(request, "jwt", kv)

    def test_malformed_token(self, store):
        kv, *_ = store
        request = Request(path="/x", credentials={"jwt": "not.a.token.at.all"})
        with pytest.raises(AuthenticationError):
            authenticate(request, "jwt", kv)

    def test_verify_token_directly(self):
        key = SigningKey.generate(b"k")
        token = issue_token(key, "iss", "sub")
        claims = verify_token(token, {"iss": key.public_key})
        assert claims == {"iss": "iss", "sub": "sub"}


class TestIndexer:
    def _write_set(self, map_name, key, value):
        ws = WriteSet()
        ws.put(map_name, key, value)
        return ws

    def test_key_write_index_tracks_txids(self):
        index = KeyWriteIndex("idx", "accounts")
        index.handle_committed(TxID(1, 1), self._write_set("accounts", "a", 1))
        index.handle_committed(TxID(1, 2), self._write_set("other", "a", 2))
        index.handle_committed(TxID(1, 3), self._write_set("accounts", "a", 3))
        assert index.txids_for_key("a") == [TxID(1, 1), TxID(1, 3)]
        assert index.txids_for_key("missing") == []

    def test_removals_not_indexed_as_writes(self):
        index = KeyWriteIndex("idx", "accounts")
        ws = WriteSet()
        ws.remove("accounts", "gone")
        index.handle_committed(TxID(1, 1), ws)
        assert index.txids_for_key("gone") == []

    def test_map_count_index(self):
        index = MapCountIndex()
        index.handle_committed(TxID(1, 1), self._write_set("m", "a", 1))
        index.handle_committed(TxID(1, 2), self._write_set("m", "b", 1))
        assert index.counts == {"m": 2}

    def test_indexer_feeds_once_in_order(self):
        indexer = Indexer()
        index = KeyWriteIndex("idx", "m")
        indexer.install(index)
        indexer.feed(TxID(1, 1), self._write_set("m", "k", 1))
        indexer.feed(TxID(1, 1), self._write_set("m", "k", 1))  # duplicate
        assert index.txids_for_key("k") == [TxID(1, 1)]
        assert indexer.last_indexed == 1

    def test_strategy_lookup(self):
        indexer = Indexer()
        index = KeyWriteIndex("named", "m")
        indexer.install(index)
        assert indexer.strategy("named") is index
        with pytest.raises(KeyError):
            indexer.strategy("nope")
        assert indexer.names() == ["named"]

    def test_offload_and_restore_sealed(self):
        """Sections 3.4 & 7: index state offloaded to untrusted storage is
        AEAD-sealed; restore round-trips; tampering is detected."""
        from repro.crypto.fastaead import FastAEADKey
        from repro.errors import VerificationError
        from repro.storage.host_storage import HostStorage

        indexer = Indexer()
        index = KeyWriteIndex("idx", "accounts")
        indexer.install(index)
        for i in range(1, 6):
            indexer.feed(TxID(1, i), self._write_set("accounts", f"k{i % 2}", i))
        storage = HostStorage()
        key = FastAEADKey.generate(b"indexer-key")
        assert indexer.offload(storage, key) == 1
        # The host sees only ciphertext.
        [name] = storage.list_files("index_")
        assert b"accounts" not in storage.read(name)
        # Restore into a fresh indexer.
        fresh = Indexer()
        fresh.install(KeyWriteIndex("idx", "accounts"))
        fresh.load_offloaded(storage, key, "idx", 5)
        assert fresh.strategy("idx").txids_for_key("k1") == index.txids_for_key("k1")
        assert fresh.last_indexed == 5
        # Tampering fails the AEAD check.
        storage.tamper_flip_byte(name, 10)
        with pytest.raises(VerificationError):
            fresh.load_offloaded(storage, key, "idx", 5)
