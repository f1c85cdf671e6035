"""Recovery shares follow membership changes (section 5.2)."""

import pytest

from repro.crypto.certs import Identity
from repro.crypto.ecies import EncryptionKeyPair
from repro.node import maps
from repro.recovery.recovery import start_recovered_service
from repro.service.client import ServiceClient
from repro.service.service import MemberHandle

from tests.node.conftest import make_service


def _add_member(service, subject, seed):
    identity = Identity.create(subject, seed)
    encryption = EncryptionKeyPair.generate(seed + b"|enc")
    service.run_governance([
        {"name": "set_member", "args": {
            "subject": subject,
            "certificate": identity.certificate.to_dict(),
            "encryption_public_key": encryption.public.hex()}},
    ])
    service.run(0.5)
    return identity, encryption


class TestShareReprovisioning:
    def test_new_member_gets_a_share(self):
        service = make_service(n_nodes=1, n_members=3)
        primary = service.primary_node()
        assert primary.store.get(maps.RECOVERY_SHARES, "m-new") is None
        _add_member(service, "m-new", b"m-new-seed")
        assert primary.store.get(maps.RECOVERY_SHARES, "m-new") is not None

    def test_removed_member_loses_their_share(self):
        service = make_service(n_nodes=1, n_members=3)
        primary = service.primary_node()
        assert primary.store.get(maps.RECOVERY_SHARES, "m2") is not None
        service.run_governance([{"name": "remove_member", "args": {"subject": "m2"}}])
        service.run(0.5)
        assert primary.store.get(maps.RECOVERY_SHARES, "m2") is None

    def test_new_member_can_participate_in_recovery(self):
        """The decisive check: a member added *after* genesis can submit a
        working share during disaster recovery."""
        service = make_service(n_nodes=3, n_members=3, recovery_threshold=2,
                               signature_interval=5)
        user = service.any_user_client()
        primary = service.primary_node()
        user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "keep me"})
        identity, encryption = _add_member(service, "m-late", b"late-member")
        service.run(0.5)

        late = MemberHandle(identity, encryption, client=ServiceClient(
            service.scheduler, service.network, name="member:m-late", identity=identity))
        salvaged = primary.storage.clone()
        for node_id in list(service.nodes):
            service.kill_node(node_id)
        node = service.new_node()
        start_recovered_service(node, salvaged, "recovered")
        service.run(0.2)

        # m-late + m0 submit shares (threshold 2).
        assert service.submit_recovery_shares([late, service.members[0]])
        assert node.store.get("records", 1) == "keep me"
