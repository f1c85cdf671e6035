"""Tests for the Merkle history tree (section 3.2 / 3.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import sha256
from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleProof,
    MerkleTree,
    leaf_hash,
    node_hash,
)
from repro.errors import IntegrityError


def _build(n):
    tree = MerkleTree()
    for i in range(n):
        tree.append(f"tx-{i}".encode())
    return tree


class TestRoots:
    def test_empty_root(self):
        assert MerkleTree().root() == EMPTY_ROOT

    def test_single_leaf_root_is_leaf_hash(self):
        tree = MerkleTree()
        tree.append(b"only")
        assert tree.root() == leaf_hash(b"only")

    def test_two_leaf_root(self):
        tree = _build(2)
        expected = node_hash(leaf_hash(b"tx-0"), leaf_hash(b"tx-1"))
        assert tree.root() == expected

    def test_three_leaf_root_rfc6962_shape(self):
        tree = _build(3)
        left = node_hash(leaf_hash(b"tx-0"), leaf_hash(b"tx-1"))
        assert tree.root() == node_hash(left, leaf_hash(b"tx-2"))

    def test_root_changes_on_append(self):
        tree = _build(5)
        before = tree.root()
        tree.append(b"tx-5")
        assert tree.root() != before

    def test_incremental_matches_batch(self):
        """The peak-merging incremental root equals a from-scratch build."""
        for n in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100):
            incremental = _build(n)
            rebuilt = MerkleTree()
            for i in range(n):
                rebuilt.append_leaf_hash(incremental.leaf(i))
            assert incremental.root() == rebuilt.root(), n

    def test_root_at_historical_sizes(self):
        tree = _build(50)
        fresh = MerkleTree()
        for i in range(50):
            fresh.append(f"tx-{i}".encode())
            assert tree.root_at(i + 1) == fresh.root()

    def test_root_at_zero_is_empty(self):
        assert _build(10).root_at(0) == EMPTY_ROOT

    def test_root_at_rejects_future_size(self):
        with pytest.raises(IntegrityError):
            _build(5).root_at(6)


class TestProofs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 16, 33])
    def test_all_proofs_verify(self, n):
        tree = _build(n)
        root = tree.root()
        for i in range(n):
            tree.proof(i).verify(f"tx-{i}".encode(), root)

    def test_historical_proofs_verify(self):
        tree = _build(40)
        for size in (1, 7, 16, 23, 40):
            root = tree.root_at(size)
            for i in range(0, size, 3):
                tree.proof(i, size).verify(f"tx-{i}".encode(), root)

    def test_proof_rejects_wrong_leaf(self):
        tree = _build(10)
        with pytest.raises(IntegrityError):
            tree.proof(3).verify(b"tx-4", tree.root())

    def test_proof_rejects_wrong_root(self):
        tree = _build(10)
        with pytest.raises(IntegrityError):
            tree.proof(3).verify(b"tx-3", sha256(b"bogus"))

    def test_proof_out_of_range_rejected(self):
        tree = _build(5)
        with pytest.raises(IntegrityError):
            tree.proof(5)
        with pytest.raises(IntegrityError):
            tree.proof(0, 6)
        with pytest.raises(IntegrityError):
            tree.proof(-1)

    def test_paper_figure3_path_length(self):
        """The Figure 3 example: transaction 1.7 (the 7th of 10, index 6) has
        proof [(right, d8), (left, d56), (left, d1234), (right, d910)]."""
        tree = _build(10)
        proof = tree.proof(6, 10)
        assert [step.side for step in proof.steps] == ["right", "left", "left", "right"]

    def test_proof_serialization_roundtrip(self):
        tree = _build(12)
        proof = tree.proof(5)
        restored = MerkleProof.from_dict(proof.to_dict())
        assert restored == proof
        restored.verify(b"tx-5", tree.root())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=120), st.data())
    def test_property_inclusion(self, n, data):
        tree = _build(n)
        index = data.draw(st.integers(min_value=0, max_value=n - 1))
        size = data.draw(st.integers(min_value=index + 1, max_value=n))
        tree.proof(index, size).verify(f"tx-{index}".encode(), tree.root_at(size))


class TestRetraction:
    def test_retract_restores_previous_root(self):
        tree = _build(20)
        root_at_12 = tree.root_at(12)
        tree.retract_to(12)
        assert tree.size == 12
        assert tree.root() == root_at_12

    def test_retract_then_append_diverges(self):
        """Rollback then different entries — the new history commits differently."""
        tree = _build(10)
        original_root = tree.root()
        tree.retract_to(8)
        tree.append(b"different-8")
        tree.append(b"different-9")
        assert tree.size == 10
        assert tree.root() != original_root

    def test_retract_to_zero(self):
        tree = _build(6)
        tree.retract_to(0)
        assert tree.root() == EMPTY_ROOT

    def test_retract_noop_at_current_size(self):
        tree = _build(6)
        root = tree.root()
        tree.retract_to(6)
        assert tree.root() == root

    def test_retract_rejects_growth(self):
        with pytest.raises(IntegrityError):
            _build(5).retract_to(6)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.data())
    def test_property_retract_equivalence(self, n, data):
        """Retracting to k then appending fresh equals never having diverged."""
        k = data.draw(st.integers(min_value=0, max_value=n))
        tree = _build(n)
        tree.retract_to(k)
        for i in range(k, n):
            tree.append(f"tx-{i}".encode())
        assert tree.root() == _build(n).root()


class TestSpineCache:
    """The ragged-subrange memo behind O(log n) historical roots/proofs."""

    def test_cached_roots_match_fresh_tree(self):
        tree = _build(100)
        # First pass populates the spine cache, second pass reads it; both
        # must agree with a tree that never cached anything.
        for _pass in range(2):
            for size in range(1, 101):
                fresh = MerkleTree()
                for i in range(size):
                    fresh.append(f"tx-{i}".encode())
                assert tree.root_at(size) == fresh.root(), size

    def test_retract_invalidates_overhanging_entries(self):
        tree = _build(64)
        for size in (10, 27, 41, 63):
            tree.root_at(size)  # warm the cache across the whole range
        tree.retract_to(30)
        for i in range(30, 64):
            tree.append(f"other-{i}".encode())
        # Every cached subrange overlapping the retracted suffix is gone;
        # historical roots over the new history are correct.
        reference = MerkleTree()
        for i in range(30):
            reference.append(f"tx-{i}".encode())
        for i in range(30, 64):
            reference.append(f"other-{i}".encode())
        for size in (10, 27, 30, 41, 63, 64):
            assert tree.root_at(size) == reference.root_at(size), size

    def test_warm_proof_cost_is_logarithmic(self, monkeypatch):
        """Once caches are warm, a historical proof computes O(log n) node
        hashes — not the O(log^2 n) ragged-spine recomputation it used to."""
        import repro.crypto.merkle as merkle_mod

        n = 1 << 12
        tree = _build(n)
        tree.proof(3, n - 5)  # warm subtree + spine caches for this shape
        counter = {"calls": 0}
        real_node_hash = merkle_mod.node_hash

        def counting_node_hash(left, right):
            counter["calls"] += 1
            return real_node_hash(left, right)

        monkeypatch.setattr(merkle_mod, "node_hash", counting_node_hash)
        proof = tree.proof(3, n - 5)
        # A proof folds one hash per step; generation itself should add at
        # most ~log n more for uncached fringes.
        assert counter["calls"] <= 2 * n.bit_length()
        monkeypatch.undo()
        proof.verify(b"tx-3", tree.root_at(n - 5))

    def test_append_after_historical_query_stays_correct(self):
        tree = _build(33)
        seen = [tree.root_at(s) for s in range(1, 34)]
        for i in range(33, 70):
            tree.append(f"tx-{i}".encode())
        # Appends never disturb frozen subrange roots.
        for size, expected in enumerate(seen, start=1):
            assert tree.root_at(size) == expected


class TestFrontier:
    """A tree seeded from another's frontier (the snapshot join path)."""

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 6, 7, 8, 13, 64, 100])
    def test_frontier_has_one_peak_per_set_bit(self, size):
        tree = _build(size + 5)
        assert len(tree.frontier(size)) == bin(size).count("1")
        assert MerkleTree.from_frontier(size, tree.frontier(size)).root() == tree.root_at(size)

    def test_frontier_of_the_current_size_is_the_mountain_range(self):
        tree = _build(13)
        assert tree.frontier(13) == tree._peaks

    def test_below_the_frontier_is_unavailable(self):
        seeded = MerkleTree.from_frontier(6, _build(6).frontier(6))
        seeded.append(b"tx-6")
        seeded.append(b"tx-7")
        assert seeded.size == 8
        assert seeded.leaf(6) == leaf_hash(b"tx-6")
        for call in (
            lambda: seeded.leaf(5),
            lambda: seeded.proof(5),
            lambda: seeded.root_at(5),
            lambda: seeded.retract_to(5),
            lambda: seeded.frontier(5),
        ):
            with pytest.raises(IntegrityError):
                call()

    def test_a_frontier_of_the_wrong_length_is_rejected(self):
        peaks = _build(6).frontier(6)
        with pytest.raises(IntegrityError):
            MerkleTree.from_frontier(7, peaks)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=50),
        st.booleans(),
        st.data(),
    )
    def test_property_seeded_tree_equals_the_full_tree(self, base, k, batched, data):
        """``from_frontier(base)`` plus k appends answers every root, proof
        and retract at or above the base as the full tree does."""
        full = _build(base + k)
        seeded = MerkleTree.from_frontier(base, _build(base).frontier(base))
        suffix = [f"tx-{i}".encode() for i in range(base, base + k)]
        if batched:
            seeded.extend(suffix)
        else:
            for leaf in suffix:
                seeded.append(leaf)
        assert seeded.size == full.size
        assert seeded.root() == full.root()
        for size in range(base, base + k + 1):
            assert seeded.root_at(size) == full.root_at(size)
            assert seeded.frontier(size) == full.frontier(size)
            for index in range(base, size):
                proof = seeded.proof(index, size)
                assert proof == full.proof(index, size)
                proof.verify(f"tx-{index}".encode(), full.root_at(size))
        retract = data.draw(st.integers(min_value=base, max_value=base + k))
        seeded.retract_to(retract)
        full.retract_to(retract)
        assert seeded.root() == full.root()
        seeded.append(b"other")
        full.append(b"other")
        assert seeded.root() == full.root()
        assert seeded.proof(retract) == full.proof(retract)
