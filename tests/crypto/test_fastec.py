"""Differential and known-answer tests for the fastec fast paths.

The contract (DESIGN.md, "fast-path discipline"): every function in
:mod:`repro.crypto.fastec` is bit-identical to the reference double-and-add
ladder in :mod:`tests.oracles.ec`, which stays plain as the oracle.
These tests hold the two against each other on seeded random scalars, the
edge scalars around the group order, and NIST P-256 known-answer vectors.
"""

import random

import pytest

from repro.crypto import ec, fastec
from repro.crypto.ec import GENERATOR, INFINITY, N, Point, decode_point
from repro.errors import CryptoError
from tests.oracles import ec as reference_ec

# Scalars where window/wNAF implementations classically go wrong: zero, the
# smallest values, the group order and its neighbours, and all-ones windows.
EDGE_SCALARS = [0, 1, 2, 3, 15, 16, 17, N - 2, N - 1, N, N + 1, 2 * N - 1, 2 * N + 5]


def _random_scalars(count: int, seed: int = 20260806) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(0, 2 * N) for _ in range(count)]


class TestGeneratorComb:
    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_edge_scalars_match_reference(self, k):
        assert fastec.generator_mult(k) == reference_ec.scalar_mult(k, GENERATOR)

    def test_random_scalars_match_reference(self):
        for k in _random_scalars(40):
            assert fastec.generator_mult(k) == reference_ec.scalar_mult(k, GENERATOR)

    def test_infinity_base(self):
        table = fastec.FixedBaseTable(INFINITY)
        assert table.mult(12345) == INFINITY

    def test_encodings_are_bit_identical(self):
        # Not just equal points: identical compressed encodings.
        for k in _random_scalars(10, seed=7):
            assert fastec.generator_mult(k).encode() == reference_ec.scalar_mult(k, GENERATOR).encode()


class TestWnafMult:
    @pytest.fixture()
    def base(self):
        return reference_ec.scalar_mult(0xDEADBEEF, GENERATOR)

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_edge_scalars_match_reference(self, base, k):
        assert fastec.wnaf_mult(k, base) == reference_ec.scalar_mult(k, base)

    def test_random_scalars_match_reference(self, base):
        for k in _random_scalars(40, seed=1):
            assert fastec.wnaf_mult(k, base) == reference_ec.scalar_mult(k, base)

    def test_point_at_infinity(self):
        assert fastec.wnaf_mult(12345, INFINITY) == INFINITY

    def test_wnaf_digits_reconstruct_scalar(self):
        for k in _random_scalars(50, seed=2):
            digits = fastec._wnaf_digits(k, fastec.WNAF_WIDTH)
            assert sum(d << i for i, d in enumerate(digits)) == k
            for d in digits:
                assert d == 0 or (d % 2 == 1 or d % 2 == -1)
                assert abs(d) < 1 << (fastec.WNAF_WIDTH - 1)


class TestDoubleScalarMult:
    @pytest.fixture()
    def base(self):
        return reference_ec.scalar_mult(0xC0FFEE, GENERATOR)

    def test_random_pairs_match_reference(self, base):
        rng = random.Random(3)
        for _ in range(25):
            u1 = rng.randrange(0, 2 * N)
            u2 = rng.randrange(0, 2 * N)
            expected = reference_ec.point_add(
                reference_ec.scalar_mult(u1, GENERATOR), reference_ec.scalar_mult(u2, base)
            )
            assert fastec.double_scalar_mult(u1, u2, base) == expected

    @pytest.mark.parametrize("u1", [0, 1, N - 1, N])
    @pytest.mark.parametrize("u2", [0, 1, N - 1, N])
    def test_edge_pairs_match_reference(self, base, u1, u2):
        expected = reference_ec.point_add(
            reference_ec.scalar_mult(u1, GENERATOR), reference_ec.scalar_mult(u2, base)
        )
        assert fastec.double_scalar_mult(u1, u2, base) == expected

    def test_infinity_point(self):
        assert fastec.double_scalar_mult(5, 7, INFINITY) == reference_ec.scalar_mult(5, GENERATOR)

    def test_cancellation_to_infinity(self):
        # u1*G + u2*(-G) with u1 == u2 must cancel exactly.
        neg_g = Point(GENERATOR.x, ec.P - GENERATOR.y)
        assert fastec.double_scalar_mult(42, 42, neg_g) == INFINITY


class TestPromotion:
    def test_promotion_keeps_results_identical(self):
        fastec.clear_point_cache()
        fastec.reset_stats()
        base = reference_ec.scalar_mult(0xABCDEF, GENERATOR)
        scalars = _random_scalars(fastec.PROMOTE_AFTER + 5, seed=4)
        for k in scalars:
            assert fastec.wnaf_mult(k, base) == reference_ec.scalar_mult(k, base)
        # The point was used often enough to earn its own comb table...
        assert fastec.STATS["fastec.comb_promotions"] >= 1
        # ...and post-promotion results still match the reference.
        for k in _random_scalars(5, seed=5):
            assert fastec.wnaf_mult(k, base) == reference_ec.scalar_mult(k, base)

    def test_point_cache_bounded(self):
        fastec.clear_point_cache()
        for i in range(fastec.POINT_CACHE_MAX + 10):
            fastec.wnaf_mult(3, reference_ec.scalar_mult(1000 + i, GENERATOR))
        assert len(fastec._POINT_TABLES) <= fastec.POINT_CACHE_MAX


class TestKnownAnswers:
    """NIST P-256 known-answer points (validated against FIPS 186-4 test
    data): small multiples of the generator, plus order-related identities."""

    # k -> (x, y) affine coordinates of k*G.
    SMALL_MULTIPLES = {
        2: (
            0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978,
            0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1,
        ),
        3: (
            0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C,
            0x8734640C4998FF7E374B06CE1A64A2ECD82AB036384FB83D9A79B127A27D5032,
        ),
        4: (
            0xE2534A3532D08FBBA02DDE659EE62BD0031FE2DB785596EF509302446B030852,
            0xE0F1575A4C633CC719DFEE5FDA862D764EFC96C3F30EE0055C42C23F184ED8C6,
        ),
        5: (
            0x51590B7A515140D2D784C85608668FDFEF8C82FD1F5BE52421554A0DC3D033ED,
            0xE0C17DA8904A727D8AE1BF36BF8A79260D012F00D4D80888D1D0BB44FDA16DA4,
        ),
    }

    @pytest.mark.parametrize("k", sorted(SMALL_MULTIPLES))
    def test_small_multiples(self, k):
        x, y = self.SMALL_MULTIPLES[k]
        assert fastec.generator_mult(k) == Point(x, y)
        assert fastec.wnaf_mult(k, GENERATOR) == Point(x, y)

    def test_order_times_generator_is_infinity(self):
        assert fastec.generator_mult(N) == INFINITY

    def test_order_minus_one_is_negated_generator(self):
        # (N-1)*G == -G on any prime-order curve.
        assert fastec.generator_mult(N - 1) == Point(GENERATOR.x, ec.P - GENERATOR.y)


class TestDecodeMemo:
    def test_hits_counted_and_point_identical(self):
        encoded = reference_ec.scalar_mult(99991, GENERATOR).encode()
        ec._DECODE_MEMO.clear()
        before = dict(ec.DECODE_STATS)
        first = decode_point(encoded)
        second = decode_point(encoded)
        assert first == second
        assert ec.DECODE_STATS["decode_point.misses"] == before["decode_point.misses"] + 1
        assert ec.DECODE_STATS["decode_point.hits"] >= before["decode_point.hits"] + 1

    def test_malformed_input_fails_every_time(self):
        bogus = b"\x02" + b"\xff" * 32  # x >= p
        for _ in range(3):
            with pytest.raises(CryptoError):
                decode_point(bogus)
        assert bogus not in ec._DECODE_MEMO

    def test_memo_bounded(self):
        ec._DECODE_MEMO.clear()
        original_max = ec._DECODE_MEMO_MAX
        ec._DECODE_MEMO_MAX = 8
        try:
            for i in range(20):
                decode_point(reference_ec.scalar_mult(500 + i, GENERATOR).encode())
            assert len(ec._DECODE_MEMO) <= 8
        finally:
            ec._DECODE_MEMO_MAX = original_max
            ec._DECODE_MEMO.clear()
