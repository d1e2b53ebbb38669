from fractions import Fraction

import pytest

from oracles import (
    reference_decompose_block,
    reference_naimark_dual,
    reference_spatial_dual,
)
from refdata import (
    BLOCK2_SUMMANDS_5x8,
    CERT_4x7_RANKS_2221,
    CERT_5x8_RANKS_2222,
    NAIMARK_DUAL_3x7,
    SPATIAL_DUAL_4x9,
)
from tffcomb import (
    alpha_reduce,
    config_naimark_dual,
    config_spatial_dual,
    count_configs,
    decide,
    decompose_block,
    find_config,
    naimark_dual,
    recur_strip,
    spatial_dual,
    validate_config,
)
from tffcomb.errors import (
    AlphaNotGreaterThanOne,
    DegenerateDual,
    InvalidCertificate,
    PreconditionNotMet,
)
from tffcomb.partitions import partitions_of


class TestSequenceSpatial:
    def test_reference_pair(self):
        assert spatial_dual((2, 2, 2, 1), 4) == ((3, 2, 2, 2), 4)

    def test_unsorted_input_sorted(self):
        assert spatial_dual((2, 3), 4) == spatial_dual((3, 2), 4) == ((2, 1), 4)
        assert naimark_dual((1, 2, 2, 2), 4) == ((2, 2, 2, 1), 3)
        assert recur_strip((1, 5, 1, 1, 1, 1, 1), 6) == ((1,) * 6, 5)

    def test_zero_parts_dropped(self):
        assert spatial_dual((4, 2, 1), 4) == ((3, 2), 4)

    def test_degenerate(self):
        with pytest.raises(DegenerateDual):
            spatial_dual((4, 4), 4)

    def test_involution_without_full_ranks(self):
        for ranks in [(2, 2, 1), (3, 2, 2, 1), (2, 1, 1)]:
            dual, dim = spatial_dual(ranks, 4)
            assert spatial_dual(dual, dim) == (ranks, 4)


class TestSequenceNaimark:
    def test_reference_pair(self):
        assert naimark_dual((2, 2, 2, 1), 4) == ((2, 2, 2, 1), 3)

    def test_same_ranks_smaller_dim(self):
        assert naimark_dual((4, 2, 2, 2, 1), 6) == ((4, 2, 2, 2, 1), 5)

    def test_involution(self):
        dual, dim = naimark_dual((3, 2, 2), 4)
        assert naimark_dual(dual, dim) == ((3, 2, 2), 4)

    def test_requires_bound_above_one(self):
        with pytest.raises(AlphaNotGreaterThanOne):
            naimark_dual((3, 2), 5)


class TestAlphaReduce:
    def test_reference_values(self):
        assert alpha_reduce(Fraction(11, 6), 6) == (Fraction(11, 5), 5)
        assert alpha_reduce(Fraction(3, 2), 8) == (Fraction(3), 4)

    def test_fixed_point_at_two(self):
        assert alpha_reduce(2, 7) == (Fraction(2), 7)

    def test_involution(self):
        alpha, dim = Fraction(7, 4), 4
        reduced = alpha_reduce(alpha, dim)
        assert alpha_reduce(*reduced) == (alpha, dim)

    def test_requires_bound_above_one(self):
        with pytest.raises(AlphaNotGreaterThanOne):
            alpha_reduce(1, 5)

    def test_reduced_instance_has_same_sequences(self):
        from tffcomb import enumerate_tff

        reduced = alpha_reduce(Fraction(11, 6), 6)
        assert reduced == (Fraction(11, 5), 5)
        assert enumerate_tff(Fraction(11, 6), 6) == enumerate_tff(*reduced)


class TestRecurStrip:
    def test_reference_strip(self):
        assert recur_strip((5, 1, 1, 1, 1, 1, 1), 6) == ((1, 1, 1, 1, 1, 1), 5)

    def test_full_rank_at_two(self):
        assert recur_strip((4, 3, 1), 4) == ((3, 1), 4)

    def test_precondition(self):
        with pytest.raises(PreconditionNotMet):
            recur_strip((4, 2, 2, 2, 1), 6)

    def test_membership_equivalence_exhaustive(self):
        for dim in range(2, 7):
            for total in range(dim + 1, 2 * dim + 1):
                for ranks in partitions_of(total, max_part=dim):
                    if ranks[0] != total - dim or len(ranks) < 2:
                        continue
                    stripped, new_dim = recur_strip(ranks, dim)
                    assert decide(ranks, dim) == decide(stripped, new_dim)


class TestSequenceLevelInvariance:
    def test_tightness_preserved_exhaustive(self):
        for dim in range(2, 7):
            for total in range(dim + 1, 2 * dim + 1):
                for ranks in partitions_of(total, max_part=dim):
                    tight = decide(ranks, dim)
                    nd_ranks, nd_dim = naimark_dual(ranks, dim)
                    if nd_ranks[0] > nd_dim:
                        # a rank exceeding the dual dimension certifies both
                        # instances non-tight
                        assert not tight
                    else:
                        assert decide(nd_ranks, nd_dim) == tight
                    if ranks[0] < dim:
                        sd_ranks, sd_dim = spatial_dual(ranks, dim)
                        assert decide(sd_ranks, sd_dim) == tight


class TestBlockDecomposition:
    def test_reference_summands(self):
        assert decompose_block(CERT_5x8_RANKS_2222.block(1)) == BLOCK2_SUMMANDS_5x8

    def test_single_column(self):
        assert decompose_block([[0], [4], [0], [0]]) == [(1,)] * 4

    def test_malformed_blocks_rejected(self):
        with pytest.raises(InvalidCertificate):
            decompose_block([[1, 0], [1, 1]])
        with pytest.raises(InvalidCertificate):
            decompose_block([[0, 1], [1, 0]])


class TestConfigSpatial:
    def test_reference_pair_exact(self):
        assert config_spatial_dual(CERT_4x7_RANKS_2221) == SPATIAL_DUAL_4x9
        assert reference_spatial_dual(CERT_4x7_RANKS_2221) == SPATIAL_DUAL_4x9

    def test_round_trip(self):
        dual = config_spatial_dual(CERT_4x7_RANKS_2221)
        assert config_spatial_dual(dual) == CERT_4x7_RANKS_2221

    def test_degenerate_full_rank_block(self):
        cert = find_config((3, 2, 1), 3)
        with pytest.raises(DegenerateDual):
            config_spatial_dual(cert)


class TestConfigNaimark:
    def test_reference_pair_exact(self):
        assert config_naimark_dual(CERT_4x7_RANKS_2221) == NAIMARK_DUAL_3x7
        assert reference_naimark_dual(CERT_4x7_RANKS_2221) == NAIMARK_DUAL_3x7

    def test_round_trip(self):
        dual = config_naimark_dual(CERT_4x7_RANKS_2221)
        assert config_naimark_dual(dual) == CERT_4x7_RANKS_2221

    def test_degenerate_at_bound_one(self):
        cert = find_config((2, 1), 3)
        with pytest.raises(DegenerateDual):
            config_naimark_dual(cert)


class TestBijections:
    def test_counts_and_involutions_exhaustive(self):
        # rank sequences with total <= 7 in dimensions up to 5; the wider
        # sweep (total <= 9) runs in the acceptance suite.  Every image is
        # also compared with the block-copy reference maps.
        from tffcomb import iter_configs

        for total in range(2, 8):
            for ranks in partitions_of(total, max_part=5):
                for dim in range(ranks[0], 6):
                    base = count_configs(ranks, dim)
                    if base == 0:
                        continue
                    certs = list(iter_configs(ranks, dim))
                    assert len(certs) == base
                    for cert in certs:
                        for k in range(len(ranks)):
                            block = cert.block(k)
                            assert decompose_block(block) == (
                                reference_decompose_block(block)
                            )
                    if ranks[0] < dim:
                        sd_ranks, _ = spatial_dual(ranks, dim)
                        assert count_configs(sd_ranks, dim) == base
                        images = set()
                        for cert in certs:
                            dual = config_spatial_dual(cert)
                            assert dual == reference_spatial_dual(cert)
                            assert validate_config(dual).ok
                            assert dual.ranks == sd_ranks
                            assert config_spatial_dual(dual) == cert
                            images.add(dual.entries)
                        assert len(images) == base
                    if total > dim:
                        assert count_configs(ranks, total - dim) == base
                        images = set()
                        for cert in certs:
                            dual = config_naimark_dual(cert)
                            assert dual == reference_naimark_dual(cert)
                            assert validate_config(dual).ok
                            assert dual.dim == total - dim
                            assert config_naimark_dual(dual) == cert
                            images.add(dual.entries)
                        assert len(images) == base
