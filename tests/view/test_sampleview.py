"""Tests for the materialized sample view facade and differential updates."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from repro.core.errors import SchemaError
from repro.storage import CostModel, HeapFile, SimulatedDisk
from repro.view import create_sample_view
from repro.workloads import generate_sale_1d

from ..conftest import make_kv_records


@pytest.fixture
def view(disk, kv_schema):
    records = make_kv_records(2500, seed=31)
    heap = HeapFile.bulk_load(disk, kv_schema, records)
    return records, create_sample_view("mysam", heap, index_on=("k",), seed=2)


def multiset(records):
    return Counter((r[0], r[1]) for r in records)


class TestBasics:
    def test_metadata(self, view):
        records, v = view
        assert v.name == "mysam"
        assert v.key_fields == ("k",)
        assert v.num_records == len(records)
        assert v.delta_size == 0

    def test_sampling_without_delta_is_tree_stream(self, view):
        records, v = view
        q = v.query((100_000, 500_000))
        got = [r for b in v.sample(q, seed=1) for r in b.records]
        expected = [r for r in records if 100_000 <= r[0] <= 500_000]
        assert multiset(got) == multiset(expected)

    def test_estimate_count(self, view):
        records, v = view
        q = v.query((100_000, 500_000))
        true = sum(1 for r in records if 100_000 <= r[0] <= 500_000)
        assert v.estimate_count(q) == pytest.approx(true, rel=0.1)


class TestDelta:
    def test_insert_validates_schema(self, view):
        _records, v = view
        with pytest.raises(SchemaError):
            v.insert([("bad", 1.0, b"")])

    def test_insert_visible_in_counts(self, view):
        records, v = view
        v.insert([(123, 1.0, b""), (456, 2.0, b"")])
        assert v.num_records == len(records) + 2
        assert v.delta_size == 2

    def test_merged_sampling_complete(self, view):
        records, v = view
        fresh = [(200_000 + i, -float(i), b"") for i in range(150)]
        v.insert(fresh)
        q = v.query((100_000, 500_000))
        got = [r for b in v.sample(q, seed=4) for r in b.records]
        expected = [r for r in records if 100_000 <= r[0] <= 500_000] + fresh
        assert multiset(got) == multiset(expected)

    def test_delta_records_interleaved_not_appended(self, view):
        """Hypergeometric merging: delta records appear spread through the
        stream, not clumped at either end."""
        records, v = view
        fresh = [(250_000 + i, -float(i), b"") for i in range(200)]
        v.insert(fresh)
        q = v.query((100_000, 500_000))
        positions = []
        pos = 0
        for batch in v.sample(q, seed=6):
            for record in batch.records:
                if record[1] < 0:  # a delta record
                    positions.append(pos)
                pos += 1
        assert positions, "no delta records sampled"
        total = pos
        mean_pos = float(np.mean(positions)) / total
        # Uniform interleaving puts the mean position near 0.5.
        assert 0.3 < mean_pos < 0.7

    def test_prefix_unbiased_between_base_and_delta(self, view):
        """In early prefixes, delta records appear at a rate proportional to
        their share of the matching population."""
        records, v = view
        fresh = [(300_000 + (i % 1000), -float(i + 1), b"") for i in range(400)]
        v.insert(fresh)
        q = v.query((100_000, 500_000))
        base_matching = sum(1 for r in records if 100_000 <= r[0] <= 500_000)
        share = 400 / (base_matching + 400)
        delta_seen = 0
        taken = 0
        for batch in v.sample(q, seed=8):
            for record in batch.records:
                taken += 1
                delta_seen += record[1] < 0
                if taken >= 300:
                    break
            if taken >= 300:
                break
        expected = 300 * share
        sigma = (300 * share * (1 - share)) ** 0.5
        assert abs(delta_seen - expected) < 5 * sigma


class TestRefresh:
    def test_refresh_rebuilds_and_clears_delta(self, view):
        records, v = view
        fresh = [(777_777, 9.0, b"")] * 5
        v.insert(fresh)
        v.refresh()
        assert v.delta_size == 0
        assert v.num_records == len(records) + 5
        q = v.query((777_777, 777_777))
        got = [r for b in v.sample(q, seed=1) for r in b.records]
        assert len(got) == 5

    def test_refresh_noop_without_delta(self, view):
        _records, v = view
        tree_before = v.tree
        v.refresh()
        assert v.tree is tree_before

    def test_refresh_keeps_explicit_height_and_sort_memory(self, disk, kv_schema):
        records = make_kv_records(600, seed=5)
        heap = HeapFile.bulk_load(disk, kv_schema, records)
        v = create_sample_view(
            "tall", heap, index_on=("k",), height=10, memory_pages=16, seed=1
        )
        assert v.tree.height == 10
        v.insert(make_kv_records(40, seed=6))
        v.refresh()
        # The auto height for 640 records on this disk is far lower.
        assert v.tree.height == 10
        assert v.tree.num_records == 640
        assert v.memory_pages == 16

    def test_refresh_memory_override_and_default_height(self, disk, kv_schema):
        heap = HeapFile.bulk_load(disk, kv_schema, make_kv_records(600, seed=5))
        v = create_sample_view("auto", heap, index_on=("k",), seed=1)
        auto_height = v.tree.height
        v.insert(make_kv_records(40, seed=6))
        v.refresh(memory_pages=3)
        assert v.tree.height == auto_height
        assert v.tree.num_records == 640


class TestRefreshGolden:
    """Pins the refresh path's simulated cost and output bytes.

    The byte-level leaf rescan has no streaming twin, so these values —
    recorded from the record-at-a-time rescan (decode every leaf, then
    ``HeapFile.bulk_load``) before it was replaced — are its oracle.
    """

    def test_refresh_clock_io_and_leaf_bytes(self):
        disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
        relation = generate_sale_1d(disk, 2**12, seed=7)
        v = create_sample_view("golden", relation, ["day"], seed=3)
        rng = random.Random(11)
        v.insert([
            (rng.randrange(500), rng.randrange(10**6), rng.randrange(10**6),
             rng.randrange(10**6), b"")
            for _ in range(256)
        ])
        v.refresh()
        stats = disk.stats
        assert (v.tree.height, v.tree.num_leaves) == (9, 256)
        assert disk.clock.hex() == "0x1.53f152931fca8p-1"
        assert (stats.page_reads, stats.page_writes, stats.seeks) == (
            1449, 1093, 1224
        )
        digest = hashlib.sha256()
        with disk.unmetered():
            for pid in v.tree.leaf_store.page_ids:
                digest.update(disk.read_page(pid))
        assert digest.hexdigest() == (
            "12991817d3994bb8882630f7e6986a483f4e14538cffb645caaf129a63c299fa"
        )
