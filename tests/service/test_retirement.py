"""Node retirement scenarios (section 4.5), including primary
self-retirement."""

import pytest

from repro.consensus.state import Role
from repro.node import maps

from tests.node.conftest import make_service


@pytest.fixture
def service():
    return make_service(n_nodes=3)


class TestPrimarySelfRetirement:
    def test_primary_can_retire_itself(self, service):
        """Section 4.5: 'A primary may commit a reconfiguration transaction
        that retires itself.' The service must elect a replacement and
        carry on."""
        old_primary = service.primary_node()
        service.run_governance(
            [{"name": "remove_node", "args": {"node_id": old_primary.node_id}}]
        )
        service.run(3.0)
        new_primary = service.primary_node()
        assert new_primary is not None
        assert new_primary.node_id != old_primary.node_id
        # The retired node reached RETIRED (safe to shut down).
        row = new_primary.store.get(maps.NODES_INFO, old_primary.node_id)
        assert row["status"] == "Retired"
        # Configuration shrank to the two survivors.
        assert old_primary.node_id not in new_primary.consensus.configurations.current.nodes
        # Service still commits writes.
        user = service.any_user_client()
        response = user.call(new_primary.node_id, "/app/write_message",
                             {"id": 1, "msg": "post-retirement"})
        assert response.ok
        service.run(0.3)
        status = user.call(new_primary.node_id, "/node/tx", {"txid": response.txid})
        assert status.body["status"] == "Committed"

    def test_retired_primary_freezes_but_stays_online(self, service):
        """The retiring node stops writing and never seeks election, but
        keeps replicating/voting until shut down."""
        old_primary = service.primary_node()
        service.run_governance(
            [{"name": "remove_node", "args": {"node_id": old_primary.node_id}}]
        )
        service.run(3.0)
        assert old_primary.consensus.writes_frozen
        assert old_primary.consensus.role is not Role.PRIMARY
        assert not old_primary.consensus.can_accept_writes
        assert not old_primary.stopped  # online until the operator kills it

    def test_writes_to_retired_node_are_forwarded(self, service):
        old_primary = service.primary_node()
        service.run_governance(
            [{"name": "remove_node", "args": {"node_id": old_primary.node_id}}]
        )
        service.run(3.0)
        user = service.any_user_client()
        response = user.call(old_primary.node_id, "/app/write_message",
                             {"id": 2, "msg": "via-retired"})
        assert response.ok  # forwarded to the new primary
        assert old_primary.frontend.forwards >= 1


class TestBackupRetirement:
    def test_two_step_retirement_order_on_ledger(self, service):
        victim = service.backup_nodes()[0]
        service.run_governance(
            [{"name": "remove_node", "args": {"node_id": victim.node_id}}]
        )
        service.run(1.0)
        primary = service.primary_node()
        statuses = []
        for entry in primary.ledger.entries():
            info = entry.public_writes.updates.get(maps.NODES_INFO, {}).get(victim.node_id)
            if isinstance(info, dict):
                statuses.append(info["status"])
        assert statuses[-2:] == ["Retiring", "Retired"]

    def test_retired_backup_keeps_receiving_until_shutdown(self, service):
        """Section 4.5: the retiring node keeps replicating so it learns
        its own retirement committed."""
        victim = service.backup_nodes()[0]
        service.run_governance(
            [{"name": "remove_node", "args": {"node_id": victim.node_id}}]
        )
        service.run(1.0)
        assert victim.consensus.writes_frozen
        # It observed its own Retired record.
        row = victim.store.get(maps.NODES_INFO, victim.node_id)
        assert row["status"] == "Retired"

    def test_pending_node_removal_deletes_row(self, service):
        """remove_node on a PENDING (never trusted) node just deletes it."""
        from repro.node.node import CCFNode

        joiner = CCFNode(
            node_id="n-pending",
            scheduler=service.scheduler,
            network=service.network,
            hardware=service.hardware,
            app=service._app_factory(),
            config=service.setup.node_config,
            code_id=service.code_id,
        )
        service.nodes["n-pending"] = joiner
        primary = service.primary_node()
        joiner.request_join(primary.node_id, primary.service_certificate)
        service.run_until(lambda: joiner.consensus is not None, timeout=5.0)
        service.run_governance(
            [{"name": "remove_node", "args": {"node_id": "n-pending"}}]
        )
        service.run(0.5)
        assert service.primary_node().store.get(maps.NODES_INFO, "n-pending") is None
