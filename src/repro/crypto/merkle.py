"""Append-only Merkle history tree (RFC 6962 structure).

This is the tree of section 3.2: each leaf is (a hash of) one ledger
transaction, the root is a cryptographic commitment to the whole ledger
prefix, and signature transactions sign that root. Receipts (section 3.5)
carry the leaf-to-root *Merkle proof* — e.g. the paper's
``[(right, d8), (left, d56), (left, d1234), (right, d910)]`` for
transaction 1.7.

Design notes:

- Appending is O(1) amortized via a "mountain range" of perfect-subtree
  peaks; computing the current root bags the peaks in O(log n).
- Proof generation recurses over the RFC 6962 split, memoizing hashes of
  aligned perfect subtrees so repeated receipt generation stays cheap.
- ``retract_to`` supports consensus rollback after an election (section 4.2):
  truncating to a previous size must yield the exact tree a node that never
  saw the discarded entries would have.
- A tree can start from the *frontier* of another — the peaks of its
  mountain range at some size, ``popcount(size)`` digests — instead of
  every leaf below that size. This is how a node joining from a snapshot
  (section 4.4) continues the service's tree: roots, appends, proofs and
  retracts at or above the frontier work as on the full tree, because
  every RFC 6962 subtree they touch below it is one of those peaks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ct import ct_eq
from repro.crypto.hashing import Digest, sha256
from repro.errors import IntegrityError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def leaf_hash(data: bytes) -> Digest:
    """Domain-separated hash of a leaf's content."""
    return sha256(_LEAF_PREFIX, data)


def node_hash(left: bytes, right: bytes) -> Digest:
    """Domain-separated hash of two child digests."""
    return sha256(_NODE_PREFIX, left, right)


def _largest_power_of_two_below(n: int) -> int:
    """The split point k of RFC 6962: the largest power of two < n."""
    if n <= 1:
        raise IntegrityError(f"cannot split a subtree of size {n}")
    k = 1 << (n.bit_length() - 1)
    return k // 2 if k == n else k


def _peak_ranges(size: int) -> list[tuple[int, int]]:
    """``(start, width)`` of each peak of a tree of ``size`` leaves, largest
    first: one aligned perfect subtree per set bit of ``size``."""
    ranges = []
    start = 0
    while start < size:
        width = 1 << ((size - start).bit_length() - 1)
        ranges.append((start, width))
        start += width
    return ranges


@dataclass(frozen=True)
class ProofStep:
    """One step of a Merkle proof: the sibling digest and its side.

    ``side == "right"`` means the sibling subtree lies to the right of the
    path (the running hash goes on the left), matching the notation of the
    paper's Figure 3 example.
    """

    side: str  # "left" or "right"
    digest: Digest


@dataclass(frozen=True)
class MerkleProof:
    """A leaf-to-root inclusion proof for ``leaf_index`` in a tree of ``tree_size``."""

    leaf_index: int
    tree_size: int
    steps: tuple[ProofStep, ...]

    def compute_root(self, leaf: Digest) -> Digest:
        """Fold the proof over the leaf hash, returning the implied root."""
        current = leaf
        for step in self.steps:
            if step.side == "right":
                current = node_hash(current, step.digest)
            elif step.side == "left":
                current = node_hash(step.digest, current)
            else:
                raise IntegrityError(f"malformed proof step side {step.side!r}")
        return current

    def verify(self, leaf_data: bytes, expected_root: Digest) -> None:
        """Check that ``leaf_data`` is committed at ``leaf_index`` under ``expected_root``."""
        if not ct_eq(self.compute_root(leaf_hash(leaf_data)), expected_root):
            raise IntegrityError("Merkle proof does not reach the expected root")

    def to_dict(self) -> dict:
        return {
            "leaf_index": self.leaf_index,
            "tree_size": self.tree_size,
            "steps": [[step.side, step.digest.hex()] for step in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MerkleProof":
        return cls(
            leaf_index=data["leaf_index"],
            tree_size=data["tree_size"],
            steps=tuple(
                ProofStep(side, Digest(bytes.fromhex(digest_hex)))
                for side, digest_hex in data["steps"]
            ),
        )


EMPTY_ROOT = sha256(b"")  # root of the empty tree, per RFC 6962


class MerkleTree:
    """Incremental Merkle tree over an append-only sequence of leaves."""

    def __init__(self) -> None:
        # Leaves below ``_base`` are not held: a tree built by
        # ``from_frontier`` knows them only through their peaks, which
        # seed ``_subtree_cache``. ``_leaves[i]`` is leaf ``_base + i``.
        self._base = 0
        self._leaves: list[Digest] = []
        # Peaks of perfect subtrees, largest first; peak i covers 2**height[i] leaves.
        self._peaks: list[Digest] = []
        self._peak_sizes: list[int] = []
        # Memoized hashes of aligned perfect subtrees: (start, size) -> digest.
        self._subtree_cache: dict[tuple[int, int], Digest] = {}
        # Memoized ragged-spine roots: (start, size) -> digest for arbitrary
        # historical subranges. A subrange over leaves that already exist is
        # frozen — appends never change it — so entries stay valid until a
        # retract discards leaves under them.
        self._spine_cache: dict[tuple[int, int], Digest] = {}

    @classmethod
    def from_frontier(cls, size: int, peaks: list[bytes]) -> "MerkleTree":
        """A tree of ``size`` leaves known only by its frontier (the digests
        ``frontier(size)`` returned). Leaves and proofs below ``size`` are
        unavailable; everything at or above it works as on the full tree."""
        ranges = _peak_ranges(size)
        if len(peaks) != len(ranges):
            raise IntegrityError(
                f"a tree of size {size} has {len(ranges)} peaks, not {len(peaks)}"
            )
        tree = cls()
        tree._base = size
        for (start, width), peak in zip(ranges, peaks):
            digest = Digest(peak)
            tree._subtree_cache[(start, width)] = digest
            tree._peaks.append(digest)
            tree._peak_sizes.append(width)
        return tree

    def frontier(self, size: int) -> list[Digest]:
        """The peaks of the tree as it was at ``size`` leaves, largest
        first: ``popcount(size)`` digests from which ``from_frontier``
        continues the tree."""
        if not self._base <= size <= self.size:
            raise IntegrityError(f"no frontier for size {size}")
        return [self._range_hash(start, width) for start, width in _peak_ranges(size)]

    def __len__(self) -> int:
        return self._base + len(self._leaves)

    @property
    def size(self) -> int:
        return self._base + len(self._leaves)

    def append(self, data: bytes) -> Digest:
        """Append a leaf; returns its leaf hash."""
        digest = leaf_hash(data)
        self.append_leaf_hash(digest)
        return digest

    def append_leaf_hash(self, digest: Digest) -> None:
        """Append a precomputed leaf hash (used when replaying a ledger)."""
        self._leaves.append(digest)
        self._peaks.append(digest)
        self._peak_sizes.append(1)
        # Merge equal-sized peaks, keeping the mountain range canonical.
        while len(self._peak_sizes) >= 2 and self._peak_sizes[-1] == self._peak_sizes[-2]:
            right = self._peaks.pop()
            left = self._peaks.pop()
            size = self._peak_sizes.pop()
            self._peak_sizes.pop()
            merged = node_hash(left, right)
            start = self.size - 2 * size
            self._subtree_cache[(start, 2 * size)] = merged
            self._peaks.append(merged)
            self._peak_sizes.append(2 * size)

    def extend(self, leaf_data: list[bytes]) -> None:
        """Append many leaves in one call (batched ledger replay).

        Semantically identical to ``append`` in a loop — same leaves, same
        peaks, same subtree cache entries — but runs the hash/merge loop
        over local variables, so per-leaf Python overhead is paid once per
        batch instead of once per leaf."""
        base = self._base
        leaves = self._leaves
        peaks = self._peaks
        peak_sizes = self._peak_sizes
        cache = self._subtree_cache
        for data in leaf_data:
            digest = leaf_hash(data)
            leaves.append(digest)
            peaks.append(digest)
            peak_sizes.append(1)
            while len(peak_sizes) >= 2 and peak_sizes[-1] == peak_sizes[-2]:
                right = peaks.pop()
                left = peaks.pop()
                size = peak_sizes.pop()
                peak_sizes.pop()
                merged = node_hash(left, right)
                cache[(base + len(leaves) - 2 * size, 2 * size)] = merged
                peaks.append(merged)
                peak_sizes.append(2 * size)

    def root(self) -> Digest:
        """The current Merkle root (a commitment to all appended leaves)."""
        if not self._peaks:
            return EMPTY_ROOT
        # Bag the peaks right-to-left, per the RFC 6962 recursion.
        current = self._peaks[-1]
        for peak in reversed(self._peaks[:-1]):
            current = node_hash(peak, current)
        return current

    def leaf(self, index: int) -> Digest:
        """The stored leaf hash at ``index``."""
        if not self._base <= index < self.size:
            raise IntegrityError(f"no leaf {index} (held: {self._base}..{self.size - 1})")
        return self._leaves[index - self._base]

    def retract_to(self, size: int) -> None:
        """Discard all leaves at index >= ``size`` (consensus rollback)."""
        if size < self._base or size > self.size:
            raise IntegrityError(f"cannot retract to size {size}")
        if size == self.size:
            return
        del self._leaves[size - self._base:]
        self._subtree_cache = {
            key: value for key, value in self._subtree_cache.items() if key[0] + key[1] <= size
        }
        self._spine_cache = {
            key: value for key, value in self._spine_cache.items() if key[0] + key[1] <= size
        }
        self._rebuild_peaks()

    def _rebuild_peaks(self) -> None:
        ranges = _peak_ranges(self.size)
        self._peaks = [self._range_hash(start, width) for start, width in ranges]
        self._peak_sizes = [width for _, width in ranges]

    def _range_hash(self, start: int, size: int) -> Digest:
        """Hash of the subtree covering leaves [start, start+size)."""
        if size == 1 and start >= self._base:
            return self._leaves[start - self._base]
        cached = self._subtree_cache.get((start, size))
        if cached is not None:
            return cached
        if start + size <= self._base:
            raise IntegrityError(f"subtree ({start}, {size}) lies below the frontier")
        k = _largest_power_of_two_below(size)
        digest = node_hash(self._range_hash(start, k), self._range_hash(start + k, size - k))
        # Only memoize aligned perfect subtrees; ragged right edges change
        # as leaves are appended.
        if size & (size - 1) == 0 and start % size == 0:
            self._subtree_cache[(start, size)] = digest
        return digest

    def root_at(self, size: int) -> Digest:
        """The root the tree had when it contained exactly ``size`` leaves."""
        if size < self._base or size > self.size:
            raise IntegrityError(f"no root for size {size}")
        if size == 0:
            return EMPTY_ROOT
        return self._subrange_root(0, size)

    def _subrange_root(self, start: int, size: int) -> Digest:
        # Perfect aligned subtrees live in _subtree_cache (filled at merge
        # time); everything else is a ragged right spine whose value is
        # frozen once its leaves exist, so memoize it too. This is what
        # keeps root_at/proof at O(log n) hashes instead of recomputing the
        # spine per call.
        if size & (size - 1) == 0 and start % size == 0:
            return self._range_hash(start, size)
        cached = self._spine_cache.get((start, size))
        if cached is not None:
            return cached
        k = _largest_power_of_two_below(size)
        digest = node_hash(
            self._range_hash(start, k), self._subrange_root(start + k, size - k)
        )
        self._spine_cache[(start, size)] = digest
        return digest

    def proof(self, leaf_index: int, tree_size: int | None = None) -> MerkleProof:
        """Inclusion proof for ``leaf_index`` against the root at ``tree_size``.

        Receipts are issued against the root signed by a *subsequent*
        signature transaction, so the proof must target that historical tree
        size, not necessarily the current one.
        """
        size = self.size if tree_size is None else tree_size
        if not self._base <= leaf_index < size <= self.size:
            raise IntegrityError(
                f"invalid proof request: leaf {leaf_index} of size {size} "
                f"(tree has {self.size})"
            )
        steps = self._path(leaf_index, 0, size)
        return MerkleProof(leaf_index=leaf_index, tree_size=size, steps=tuple(steps))

    def _path(self, index: int, start: int, size: int) -> list[ProofStep]:
        """RFC 6962 PATH recursion; ``index`` is relative to ``start``."""
        if size == 1:
            return []
        k = _largest_power_of_two_below(size)
        if index < k:
            steps = self._path(index, start, k)
            sibling = self._subrange_root(start + k, size - k)
            steps.append(ProofStep("right", sibling))
        else:
            steps = self._path(index - k, start + k, size - k)
            sibling = self._range_hash(start, k)
            steps.append(ProofStep("left", sibling))
        return steps
