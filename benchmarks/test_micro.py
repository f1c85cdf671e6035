"""Microbenchmarks of the substrate data structures and crypto.

These use pytest-benchmark's statistics (wall-clock): they measure the
reproduction's own building blocks — the Merkle tree, the CHAMP map, the
AEAD suites, ECDSA, write-set serialization, and the JS engine vs native
handler execution (the mechanism behind Table 5's runtime gap).
"""

import random

from repro.app.jsapp.interp import Interpreter
from repro.app.jsapp.parser import parse
from repro.crypto import fastec
from repro.crypto.aead import AEADKey, nonce_from_counter
from repro.crypto.ecdsa import SigningKey, clear_verify_memo
from repro.crypto.fastaead import FastAEADKey
from repro.crypto.merkle import MerkleTree
from repro.kv.champ import ChampMap
from repro.kv.tx import WriteSet
from repro.perf import costmodel


class TestMerkle:
    def test_append_throughput(self, benchmark):
        def append_1000():
            tree = MerkleTree()
            for i in range(1000):
                tree.append(i.to_bytes(8, "big"))
            return tree.root()

        benchmark(append_1000)

    def test_root_computation(self, benchmark):
        tree = MerkleTree()
        for i in range(10_000):
            tree.append(i.to_bytes(8, "big"))
        benchmark(tree.root)

    def test_proof_generation(self, benchmark):
        tree = MerkleTree()
        for i in range(10_000):
            tree.append(i.to_bytes(8, "big"))
        rng = random.Random(0)
        benchmark(lambda: tree.proof(rng.randrange(9_000), 10_000))

    def test_proof_verification(self, benchmark):
        tree = MerkleTree()
        for i in range(1000):
            tree.append(i.to_bytes(8, "big"))
        proof = tree.proof(123, 1000)
        root = tree.root()
        benchmark(lambda: proof.verify((123).to_bytes(8, "big"), root))

    def test_historical_root_warm(self, benchmark):
        """``root_at`` against a fixed past size once the spine cache holds
        the ragged subrange roots — the receipt-issuing hot path."""
        tree = MerkleTree()
        for i in range(10_000):
            tree.append(i.to_bytes(8, "big"))
        tree.root_at(9_995)  # freeze the spine for this size
        benchmark(lambda: tree.root_at(9_995))

    def test_historical_proof_warm(self, benchmark):
        """Historical inclusion proofs over a warm cache: O(log n) node
        hashes instead of recomputing the ragged spine each call."""
        tree = MerkleTree()
        for i in range(10_000):
            tree.append(i.to_bytes(8, "big"))
        tree.proof(123, 9_995)  # warm subtree + spine caches
        benchmark(lambda: tree.proof(123, 9_995))

    def test_batch_extend(self, benchmark):
        """``extend`` amortizes per-append overhead during recovery replay."""
        data = [i.to_bytes(8, "big") for i in range(1000)]

        def extend_1000():
            tree = MerkleTree()
            tree.extend(data)
            return tree.root()

        benchmark(extend_1000)


class TestChamp:
    def test_insert_1000(self, benchmark):
        def build():
            m = ChampMap.empty()
            for i in range(1000):
                m = m.set(f"key-{i}", i)
            return m

        benchmark(build)

    def test_lookup(self, benchmark):
        m = ChampMap.from_dict({f"key-{i}": i for i in range(10_000)})
        rng = random.Random(0)
        benchmark(lambda: m.get(f"key-{rng.randrange(10_000)}"))

    def test_persistent_update(self, benchmark):
        m = ChampMap.from_dict({f"key-{i}": i for i in range(10_000)})
        benchmark(lambda: m.set("key-5000", -1))

    def test_persistent_bulk_build(self, benchmark):
        """The pre-PR10 bulk build: one path copy per insert."""
        pairs = [(f"key-{i}", i) for i in range(10_000)]

        def build():
            m = ChampMap.empty()
            for key, value in pairs:
                m = m.set(key, value)
            return m

        benchmark(build)

    def test_transient_bulk_build(self, benchmark):
        """``from_items`` routes through a transient builder: one ownership
        token for the whole build, in-place list mutation per insert."""
        pairs = [(f"key-{i}", i) for i in range(10_000)]
        benchmark(lambda: ChampMap.from_items(pairs))

    def test_transient_batch_update(self, benchmark):
        """A 512-write batch against a 10k map through the builder — the
        ``apply_write_set`` fast-path shape."""
        m = ChampMap.from_dict({f"key-{i}": i for i in range(10_000)})
        batch = [(f"key-{i * 17 % 12_000}", -i) for i in range(512)]

        def apply_batch():
            builder = m.transient()
            for key, value in batch:
                builder.set(key, value)
            return builder.freeze()

        benchmark(apply_batch)


class TestCrypto:
    def test_fast_aead_seal_small(self, benchmark):
        key = FastAEADKey.generate(b"bench")
        nonce = nonce_from_counter(1)
        benchmark(lambda: key.seal(nonce, b"x" * 64))

    def test_chacha20poly1305_seal_small(self, benchmark):
        key = AEADKey.generate(b"bench")
        nonce = nonce_from_counter(1)
        benchmark(lambda: key.seal(nonce, b"x" * 64))

    def test_ecdsa_sign(self, benchmark):
        key = SigningKey.generate(b"bench")
        benchmark(lambda: key.sign(b"merkle root"))

    def test_ecdsa_verify(self, benchmark):
        key = SigningKey.generate(b"bench")
        signature = key.sign(b"merkle root")
        public = key.public_key
        benchmark(lambda: public.verify(signature, b"merkle root"))


def _cold_verify(public, signature, message):
    """One verification past an emptied memo: the real double-scalar cost."""
    clear_verify_memo()
    public.verify(signature, message)


class TestFastPath:
    """The fastec fast paths (comb, wNAF, verify memo).

    These report *host* wall-clock only; the simulated-time charge for the
    same operations is fixed by the CostModel and deliberately unaffected
    (see ``test_wall_clock_vs_simulated_time``).
    """

    SCALAR = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721

    def test_comb_generator_mult(self, benchmark):
        benchmark(lambda: fastec.generator_mult(self.SCALAR))

    def test_wnaf_point_mult(self, benchmark):
        point = fastec.generator_mult(7777)
        fastec.wnaf_mult(2, point)  # warm the per-point tables
        benchmark(lambda: fastec.wnaf_mult(self.SCALAR, point))

    def test_double_scalar_mult(self, benchmark):
        point = fastec.generator_mult(7777)
        fastec.double_scalar_mult(2, 3, point)  # warm the per-point tables
        benchmark(lambda: fastec.double_scalar_mult(self.SCALAR, 12345, point))

    def test_ecdsa_verify_cold(self, benchmark):
        """Verify with the memo emptied each round."""
        key = SigningKey.generate(b"bench-cold")
        signature = key.sign(b"merkle root")
        public = key.public_key
        benchmark(_cold_verify, public, signature, b"merkle root")

    def test_ecdsa_verify_memo_hit(self, benchmark):
        """Repeated verification of one (key, digest, signature) triple."""
        key = SigningKey.generate(b"bench-memo")
        signature = key.sign(b"merkle root")
        public = key.public_key
        clear_verify_memo()
        public.verify(signature, b"merkle root")  # populate
        benchmark(lambda: public.verify(signature, b"merkle root"))

    def test_wall_clock_vs_simulated_time(self, benchmark, capsys):
        """Host wall-clock of a cold verify, next to the simulated clock.

        A CostModel charge is a number the simulation schedules with; it
        must not move when the host gets faster, or seeded traces would
        diverge across machines — so the signing charge is still the seed
        value the fast paths are forbidden to touch. Verification has no
        simulated charge at all (no node is charged for one), so the host
        clock is the only clock this operation runs on.
        """
        assert costmodel.SIGNATURE_COST == 1.0e-3

        key = SigningKey.generate(b"bench-two-clocks")
        signature = key.sign(b"merkle root")
        public = key.public_key
        benchmark(_cold_verify, public, signature, b"merkle root")
        if benchmark.stats is None:
            return  # --benchmark-disable: no host clock to put beside it
        host_s = benchmark.stats.stats.mean
        with capsys.disabled():
            print(
                f"\n[two-clocks] ecdsa_verify: host wall-clock "
                f"{host_s * 1e3:.3f} ms/op, no simulated charge"
            )


class TestSerialization:
    def test_write_set_encode(self, benchmark):
        ws = WriteSet()
        for i in range(20):
            ws.put("records", i, {"balance": i * 100, "owner": f"user-{i}"})
        benchmark(ws.encode)

    def test_write_set_decode(self, benchmark):
        ws = WriteSet()
        for i in range(20):
            ws.put("records", i, {"balance": i * 100, "owner": f"user-{i}"})
        data = ws.encode()
        benchmark(lambda: WriteSet.decode(data))


class TestRuntimeGap:
    """The native-vs-JS execution gap that drives Table 5's rows."""

    NATIVE_SOURCE = None

    def test_native_handler(self, benchmark):
        def handler(body):
            return {"id": body["id"], "msg": body["msg"]}

        benchmark(lambda: handler({"id": 1, "msg": "x" * 20}))

    def test_js_handler(self, benchmark):
        ast = parse("""
        function handle(request) {
            var id = request.body.id;
            var msg = request.body.msg;
            return { id: id, msg: msg };
        }
        """)

        def run():
            interp = Interpreter()
            interp.run_ast(ast)
            return interp.call_function("handle", {"body": {"id": 1, "msg": "x" * 20}})

        benchmark(run)
