"""Tests for platform models, calibration and named platforms."""

import numpy as np
import pytest

from repro.platform import (
    HardwareSpec,
    Platform,
    UT_CLUSTER,
    Worker,
    block_bytes,
    blocks_per_megabyte,
    calibrate,
    memory_mb_to_blocks,
    perturbed,
    scaled_bandwidth,
    table1_platform,
    table2_platform,
    ut_cluster_platform,
)
from repro.core.heterogeneous import chunk_sizes


class TestWorker:
    def test_valid_worker(self):
        wk = Worker(1, c=0.5, w=1.0, m=10)
        assert wk.label == "P1"

    def test_named_label(self):
        assert Worker(2, 1, 1, 5, name="fast").label == "fast"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(index=0, c=1, w=1, m=5),
            dict(index=1, c=0, w=1, m=5),
            dict(index=1, c=1, w=-1, m=5),
            dict(index=1, c=1, w=1, m=0),
        ],
    )
    def test_invalid_workers(self, kwargs):
        with pytest.raises(ValueError):
            Worker(**kwargs)

    @pytest.mark.parametrize("field", ["c", "w"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rates_rejected(self, field, value):
        kwargs = dict(index=1, c=1.0, w=1.0, m=10)
        kwargs[field] = value
        with pytest.raises(ValueError, match="positive finite"):
            Worker(**kwargs)

    @pytest.mark.parametrize(
        "m", [float("nan"), float("inf"), 2.5, True, np.int64(40)],
        ids=["nan", "inf", "2.5", "True", "np.int64"],
    )
    def test_non_int_memory_rejected(self, m):
        """A non-int m used to construct and fail only later, deep in
        the layout code (or pass as ``True`` == 1 block)."""
        with pytest.raises(TypeError, match="m must be an int"):
            Worker(1, c=1.0, w=1.0, m=m)


class TestPlatform:
    def test_homogeneous_builder(self):
        plat = Platform.homogeneous(4, c=1.0, w=2.0, m=30)
        assert plat.p == 4
        assert plat.is_homogeneous
        assert all(wk.c == 1.0 for wk in plat)

    def test_heterogeneous_builder(self):
        plat = Platform.heterogeneous([1, 2], [3, 4], [10, 20])
        assert not plat.is_homogeneous
        assert plat.worker(2).m == 20

    def test_mismatched_lists_rejected(self):
        with pytest.raises(ValueError):
            Platform.heterogeneous([1], [2, 3], [10])

    def test_empty_platform_rejected(self):
        with pytest.raises(ValueError):
            Platform(())

    def test_non_contiguous_indices_rejected(self):
        with pytest.raises(ValueError):
            Platform((Worker(1, 1, 1, 5), Worker(3, 1, 1, 5)))

    def test_worker_lookup_bounds(self):
        plat = Platform.homogeneous(2, 1, 1, 5)
        with pytest.raises(IndexError):
            plat.worker(0)
        with pytest.raises(IndexError):
            plat.worker(3)

    def test_subset_reindexes(self):
        plat = Platform.heterogeneous([1, 2, 3], [1, 2, 3], [10, 20, 30])
        sub = plat.subset([3, 1])
        assert sub.p == 2
        assert sub.worker(1).c == 3  # original P3 first
        assert sub.worker(2).c == 1

    def test_len_and_iter(self):
        plat = Platform.homogeneous(3, 1, 1, 5)
        assert len(plat) == 3
        assert [wk.index for wk in plat] == [1, 2, 3]

    def test_describe_mentions_all_workers(self):
        text = Platform.homogeneous(3, 1, 1, 5).describe()
        for label in ("P1", "P2", "P3"):
            assert label in text


class TestPerturbed:
    def test_jitter_changes_parameters_not_memory(self):
        base = Platform.homogeneous(4, c=1.0, w=2.0, m=50)
        rng = np.random.default_rng(0)
        jit = perturbed(base, rng, sigma=0.05)
        assert all(wk.m == 50 for wk in jit)
        assert any(wk.c != 1.0 for wk in jit)

    def test_sigma_zero_is_identity(self):
        base = Platform.homogeneous(2, c=1.0, w=2.0, m=50)
        jit = perturbed(base, np.random.default_rng(1), sigma=0.0)
        assert all(wk.c == 1.0 and wk.w == 2.0 for wk in jit)

    def test_negative_sigma_rejected(self):
        base = Platform.homogeneous(2, 1, 1, 5)
        with pytest.raises(ValueError):
            perturbed(base, np.random.default_rng(0), sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        base = Platform.homogeneous(2, 1, 1, 5)
        with pytest.raises(ValueError, match="finite"):
            perturbed(base, np.random.default_rng(0), sigma=sigma)

    def test_seeded_jitter_reproducible(self):
        base = Platform.homogeneous(3, 1.0, 1.0, 9)
        a = perturbed(base, np.random.default_rng(7))
        b = perturbed(base, np.random.default_rng(7))
        assert [w.c for w in a] == [w.c for w in b]


class TestScaledBandwidth:
    def test_scales_every_link(self):
        base = Platform.homogeneous(2, c=1.0, w=2.0, m=50)
        assert [wk.c for wk in scaled_bandwidth(base, 2.0)] == [2.0, 2.0]

    @pytest.mark.parametrize(
        "factor", [0.0, -1.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_bad_factor_rejected(self, factor):
        base = Platform.homogeneous(2, 1, 1, 5)
        with pytest.raises(ValueError, match="bandwidth factor"):
            scaled_bandwidth(base, factor)


class TestCalibration:
    def test_block_bytes(self):
        assert block_bytes(80) == 80 * 80 * 8

    def test_blocks_per_megabyte(self):
        assert blocks_per_megabyte(80) == pytest.approx(1e6 / 51200)

    def test_memory_conversion_512mb(self):
        # 512 MB of 80x80 float64 blocks = 10000 blocks.
        assert memory_mb_to_blocks(512, 80) == 10000

    def test_memory_too_small_rejected(self):
        with pytest.raises(ValueError):
            memory_mb_to_blocks(0.01, 80)

    def test_calibrate_ut_cluster(self):
        c, w, m = calibrate(UT_CLUSTER)
        # 80x80 doubles over 100 Mb/s: 51200*8/100e6 s.
        assert c == pytest.approx(0.004096)
        assert w == pytest.approx(2 * 80**3 / 3.5e9)
        assert m == 10000

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            HardwareSpec(bandwidth_bps=0)
        with pytest.raises(ValueError):
            HardwareSpec(memory_mb=-1)

    def test_q_scaling_keeps_per_element_rates(self):
        c40, w40, _ = calibrate(HardwareSpec(q=40))
        c80, w80, _ = calibrate(HardwareSpec(q=80))
        # c scales with q^2, w with q^3.
        assert c80 / c40 == pytest.approx(4.0)
        assert w80 / w40 == pytest.approx(8.0)


class TestNamedPlatforms:
    def test_table1_chunk_sizes(self):
        assert chunk_sizes(table1_platform()) == [2, 2]

    def test_table2_chunk_sizes(self):
        assert chunk_sizes(table2_platform()) == [6, 18, 10]

    def test_table2_parameters(self):
        plat = table2_platform()
        assert [wk.c for wk in plat] == [2.0, 3.0, 5.0]
        assert [wk.w for wk in plat] == [2.0, 3.0, 1.0]

    def test_ut_cluster_default(self):
        plat = ut_cluster_platform(p=8)
        assert plat.p == 8
        assert plat.is_homogeneous
        assert plat.workers[0].m == 10000

    def test_ut_cluster_memory_sweep(self):
        low = ut_cluster_platform(p=2, memory_mb=132)
        assert low.workers[0].m == memory_mb_to_blocks(132, 80)


class TestHeterogeneousLengthMismatch:
    """Mismatched c/w/m lists must raise, never zip-truncate workers.

    All three mismatch directions are covered: a silently shorter
    platform would skew every downstream selection/makespan result
    (the Linpack-generator lesson: silent input-model assumptions
    corrupt results).
    """

    def test_short_c_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Platform.heterogeneous([1.0], [1.0, 2.0], [10, 20])

    def test_short_w_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Platform.heterogeneous([1.0, 2.0], [1.0], [10, 20])

    def test_short_m_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Platform.heterogeneous([1.0, 2.0], [1.0, 2.0], [10])

    def test_error_names_the_lengths(self):
        with pytest.raises(ValueError, match=r"len\(c\)=1, len\(w\)=2, len\(m\)=3"):
            Platform.heterogeneous([1.0], [1.0, 2.0], [10, 20, 30])

    def test_matched_lists_accepted(self):
        assert Platform.heterogeneous([1.0, 2.0], [1.0, 2.0], [10, 20]).p == 2
