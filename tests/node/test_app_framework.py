"""Unit tests for the application framework and cost model."""

import pytest

from repro.app.application import Application, Endpoint
from repro.app.context import Caller, Request, RequestContext
from repro.errors import AuthorizationError, ConfigurationError
from repro.kv.store import KVStore
from repro.node.config import NodeConfig
from repro.perf import costmodel
from repro.perf.costmodel import CostModel


class TestApplication:
    def test_register_and_lookup(self):
        app = Application(name="t")
        app.add_endpoint("hello", lambda ctx: {"hi": True})
        endpoint = app.lookup("hello")
        assert endpoint is not None
        assert endpoint.auth_policy == "user_cert"
        assert not endpoint.read_only
        assert app.lookup("missing") is None

    def test_decorator_form(self):
        app = Application(name="t")

        @app.endpoint("read_thing", read_only=True, auth_policy="no_auth")
        def read_thing(ctx):
            return 1

        endpoint = app.lookup("read_thing")
        assert endpoint.read_only
        assert endpoint.auth_policy == "no_auth"

    def test_duplicate_endpoint_rejected(self):
        app = Application(name="t")
        app.add_endpoint("x", lambda ctx: None)
        with pytest.raises(ConfigurationError):
            app.add_endpoint("x", lambda ctx: None)

    def test_unknown_auth_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            Endpoint(name="x", handler=lambda ctx: None, auth_policy="psychic")

    def test_indexing_strategy_registration(self):
        app = Application(name="t")
        app.add_indexing_strategy("s", lambda: object())
        assert "s" in app.indexing_strategies


class TestRequestContext:
    def _ctx(self):
        store = KVStore()
        tx = store.begin()
        request = Request(path="/app/x", body={"k": 1})
        return RequestContext(request, tx, Caller("user", "u0"))

    def test_kv_wrappers(self):
        ctx = self._ctx()
        ctx.put("m", "k", "v")
        assert ctx.get("m", "k") == "v"
        assert dict(ctx.items("m")) == {"k": "v"}
        ctx.remove("m", "k")
        assert ctx.get("m", "k") is None

    def test_require(self):
        ctx = self._ctx()
        ctx.require(True, "fine")
        with pytest.raises(AuthorizationError, match="nope"):
            ctx.require(False, "nope")

    def test_claims(self):
        ctx = self._ctx()
        assert ctx.claims is None
        ctx.attach_claims({"who": "u0"})
        assert ctx.claims == {"who": "u0"}

    def test_historical_without_node_rejected(self):
        ctx = self._ctx()
        with pytest.raises(AuthorizationError):
            ctx.historical_entries(1, 2)
        with pytest.raises(AuthorizationError):
            ctx.index("x")


class TestCostModel:
    def test_calibration_ratios_match_table5_shape(self):
        """The cost table must encode Table 5's ordering relations."""
        native_sgx = CostModel(runtime="native", platform="sgx")
        native_virtual = CostModel(runtime="native", platform="virtual")
        js_sgx = CostModel(runtime="js", platform="sgx")
        js_virtual = CostModel(runtime="js", platform="virtual")
        # virtual faster than SGX everywhere.
        assert native_virtual.execution.write < native_sgx.execution.write
        assert native_virtual.execution.read < native_sgx.execution.read
        assert js_virtual.execution.write < js_sgx.execution.write
        # native faster than js everywhere.
        assert native_sgx.execution.write < js_sgx.execution.write
        assert native_sgx.execution.read < js_sgx.execution.read
        # Ratios in the paper's ballpark.
        assert 1.4 < native_virtual.execution.write ** -1 / native_sgx.execution.write ** -1 < 2.4
        assert 3.0 < js_sgx.execution.write / native_sgx.execution.write < 6.0

    def test_replication_cost_grows_with_backups(self):
        model = CostModel()
        assert model.write_cost(4) > model.write_cost(0)
        assert model.write_cost(0) == model.execution.write

    def test_snp_close_to_virtual(self):
        snp = CostModel(runtime="native", platform="snp")
        virtual = CostModel(runtime="native", platform="virtual")
        assert snp.execution.write < 1.15 * virtual.execution.write

    def test_unknown_combination_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(runtime="cobol", platform="sgx")

    def test_signature_cost_matches_figure8(self):
        """Figure 8: the signing bump is ~1 ms."""
        assert 0.0005 < costmodel.SIGNATURE_COST < 0.002


class TestNodeConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("signature_interval", 0),
            # A negative interval would make each snapshot's evidence
            # commit trigger the next snapshot: the primary livelocks.
            ("snapshot_interval", -1),
            ("signature_flush_time", -0.01),
            ("platform", "sgxx"),
            ("runtime", "cobol"),
        ],
    )
    def test_bad_value_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigurationError):
            NodeConfig(**{field: value})
