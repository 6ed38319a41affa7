"""Unit tests for ACE Tree bulk construction (Phases 1 and 2)."""

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.acetree.build import _splits_by_rank
from repro.core import Field, Schema
from repro.core.errors import IndexBuildError
from repro.storage import CostModel, HeapFile, SimulatedDisk, external_sort

from ..conftest import make_kv_records, make_xy_records


@pytest.fixture
def disk():
    return SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))


@pytest.fixture
def kv_schema():
    return Schema([Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)])


def build_small(disk, kv_schema, n=2000, height=None, seed=0):
    heap = HeapFile.bulk_load(disk, kv_schema, make_kv_records(n, seed=seed))
    return heap, build_ace_tree(
        heap, AceBuildParams(key_fields=("k",), height=height, seed=seed)
    )


class TestParams:
    def test_string_key_normalized(self):
        params = AceBuildParams(key_fields="k")
        assert params.key_fields == ("k",)

    def test_empty_keys_rejected(self):
        with pytest.raises(IndexBuildError):
            AceBuildParams(key_fields=())


class TestBuildBasics:
    def test_empty_relation_rejected(self, disk, kv_schema):
        heap = HeapFile.bulk_load(disk, kv_schema, [])
        with pytest.raises(IndexBuildError):
            build_ace_tree(heap, AceBuildParams(key_fields=("k",)))

    def test_height_one_rejected(self, disk, kv_schema):
        heap = HeapFile.bulk_load(disk, kv_schema, make_kv_records(10))
        with pytest.raises(IndexBuildError):
            build_ace_tree(heap, AceBuildParams(key_fields=("k",), height=1))

    def test_auto_height(self, disk, kv_schema):
        _heap, tree = build_small(disk, kv_schema, n=2000)
        # Expected leaf (all sections) should fit ~0.7 of a 2 KB page.
        expected_leaf_bytes = 2000 / tree.num_leaves * 100
        assert expected_leaf_bytes <= 0.7 * 2048

    def test_explicit_height(self, disk, kv_schema):
        _heap, tree = build_small(disk, kv_schema, n=500, height=4)
        assert tree.height == 4
        assert tree.num_leaves == 8
        assert tree.leaf_store.num_leaves == 8

    def test_source_left_intact(self, disk, kv_schema):
        heap, _tree = build_small(disk, kv_schema, n=500, height=4)
        assert heap.num_records == 500
        assert len(list(heap.scan())) == 500

    def test_report(self, disk, kv_schema):
        _heap, tree = build_small(disk, kv_schema, n=500, height=4)
        report = tree.build_report
        assert report.num_records == 500
        assert report.height == 4
        assert report.num_leaves == 8
        assert report.mean_section_size == pytest.approx(500 / (4 * 8))
        assert report.build_seconds > 0
        assert report.io.page_writes > 0


class TestRecordPlacement:
    """Every record must land in a (leaf, section) cell consistent with the
    geometry: its key inside the section's range, and the leaf below the
    record's level-s ancestor (paper Phase 2, Figure 9)."""

    def test_all_records_stored_exactly_once(self, disk, kv_schema):
        heap, tree = build_small(disk, kv_schema, n=1500, height=5)
        stored = []
        for leaf in tree.leaf_store.iter_leaves():
            for section in leaf.sections:
                stored.extend(section)
        assert sorted(r[:2] for r in stored) == sorted(
            r[:2] for r in heap.scan()
        )

    def test_section_ranges_respected(self, disk, kv_schema):
        _heap, tree = build_small(disk, kv_schema, n=1500, height=5)
        geom = tree.geometry
        for leaf in tree.leaf_store.iter_leaves():
            for s in range(1, tree.height + 1):
                box = geom.section_box(leaf.index, s)
                for record in leaf.section(s):
                    assert box.contains_point((record[0],)), (
                        f"leaf {leaf.index} section {s}: key {record[0]} "
                        f"outside {box}"
                    )

    def test_cell_counts_exact(self, disk, kv_schema):
        heap, tree = build_small(disk, kv_schema, n=1200, height=5)
        geom = tree.geometry
        expected = [0] * geom.num_leaves
        for record in heap.scan():
            expected[geom.locate_leaf((record[0],))] += 1
        actual = [geom.cell_count(i) for i in range(geom.num_leaves)]
        assert actual == expected

    def test_domain_covers_all_keys(self, disk, kv_schema):
        heap, tree = build_small(disk, kv_schema, n=800, height=4)
        domain = tree.geometry.domain
        for record in heap.scan():
            assert domain.contains_point((record[0],))


class TestMedianSplits:
    def test_splits_balance_the_data(self, disk, kv_schema):
        """Root split should put ~half the records on each side."""
        heap, tree = build_small(disk, kv_schema, n=2000, height=5)
        root_key = tree.geometry.split_key(1, 0)
        left = sum(1 for r in heap.scan() if r[0] < root_key)
        assert abs(left - 1000) <= 20  # ties / rank rounding slack

    def test_exponentiality_of_node_counts(self, disk, kv_schema):
        """|records in L.R_i| ~ 2 x |records in L.R_{i+1}| (Section IV.C)."""
        _heap, tree = build_small(disk, kv_schema, n=4000, height=5)
        geom = tree.geometry
        for leaf in range(0, geom.num_leaves, 3):
            for s in range(1, tree.height - 1):
                outer = geom.node_count(s, geom.ancestor(leaf, s))
                inner = geom.node_count(s + 1, geom.ancestor(leaf, s + 1))
                assert outer == pytest.approx(2 * inner, rel=0.25)

    def test_duplicate_keys_tolerated(self, disk, kv_schema):
        """Heavy duplication degenerates splits but must not break the build."""
        records = [(5, float(i), b"") for i in range(300)]
        records += [(9, float(i), b"") for i in range(100)]
        heap = HeapFile.bulk_load(disk, kv_schema, records)
        tree = build_ace_tree(heap, AceBuildParams(key_fields=("k",), height=4))
        stored = sum(
            len(s) for leaf in tree.leaf_store.iter_leaves() for s in leaf.sections
        )
        assert stored == 400

    def test_single_record(self, disk, kv_schema):
        heap = HeapFile.bulk_load(disk, kv_schema, [(42, 1.0, b"")])
        tree = build_ace_tree(heap, AceBuildParams(key_fields=("k",), height=2))
        stored = [
            r
            for leaf in tree.leaf_store.iter_leaves()
            for s in leaf.sections
            for r in s
        ]
        assert len(stored) == 1
        assert stored[0][0] == 42


class TestDeterminism:
    def test_same_seed_same_tree(self, kv_schema):
        def build(seed):
            disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
            heap = HeapFile.bulk_load(disk, kv_schema, make_kv_records(600, seed=1))
            tree = build_ace_tree(
                heap, AceBuildParams(key_fields=("k",), height=4, seed=seed)
            )
            return [
                tuple(tuple(r[:2] for r in s) for s in leaf.sections)
                for leaf in tree.leaf_store.iter_leaves()
            ]

        assert build(5) == build(5)
        assert build(5) != build(6)


class TestKdBuild:
    def test_2d_build_places_all_records(self):
        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        schema = Schema([Field("x", "f8"), Field("y", "f8"), Field("tag", "i8")])
        heap = HeapFile.bulk_load(disk, schema, make_xy_records(1000, seed=2))
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("x", "y"), height=5)
        )
        assert tree.dims == 2
        stored = [
            r
            for leaf in tree.leaf_store.iter_leaves()
            for s in leaf.sections
            for r in s
        ]
        assert sorted(r[2] for r in stored) == list(range(1000))

    def test_2d_section_boxes_respected(self):
        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        schema = Schema([Field("x", "f8"), Field("y", "f8"), Field("tag", "i8")])
        heap = HeapFile.bulk_load(disk, schema, make_xy_records(1000, seed=4))
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("x", "y"), height=5)
        )
        geom = tree.geometry
        for leaf in tree.leaf_store.iter_leaves():
            for s in range(1, tree.height + 1):
                box = geom.section_box(leaf.index, s)
                for record in leaf.section(s):
                    assert box.contains_point((record[0], record[1]))

    def test_dims_exceed_height_rejected(self):
        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        schema = Schema([Field("x", "f8"), Field("y", "f8"), Field("tag", "i8")])
        heap = HeapFile.bulk_load(disk, schema, make_xy_records(100))
        with pytest.raises(IndexBuildError):
            build_ace_tree(heap, AceBuildParams(key_fields=("x", "y"), height=2))


class _CountingPage(list):
    """A decoded page that counts the lookups made on it."""

    calls = 0

    def __len__(self):
        _CountingPage.calls += 1
        return super().__len__()

    def __getitem__(self, index):
        _CountingPage.calls += 1
        return super().__getitem__(index)


class TestSplitLookupComplexity:
    """The 1-D split lookup is linear in pages plus wanted ranks.

    A lookup that scans every wanted rank for each needed page does
    pages x ranks work (about 65 x 2049 ``len`` calls here) and turned the
    default-height build quadratic.
    """

    def test_each_page_read_once_and_work_linear(self, disk):
        schema = Schema([Field("k", "i8"), Field("v", "f8")])
        heap = HeapFile.bulk_load(
            disk, schema, [(k, v) for k, v, _pad in make_kv_records(2**13, seed=9)]
        )
        sorted_file = external_sort(heap, key_field="k")
        reads: list[int] = []
        real_read = sorted_file.read_page_records

        def counting_read(index):
            reads.append(index)
            return _CountingPage(real_read(index))

        sorted_file.read_page_records = counting_read
        _CountingPage.calls = 0
        height = 12
        domain, splits = _splits_by_rank(
            sorted_file, schema.key_getter("k"), height
        )

        n = sorted_file.num_records
        per_page = sorted_file.records_per_page
        ranks = {0, n - 1} | {
            ((2 * j + 1) * n) // 2**level
            for level in range(1, height)
            for j in range(2 ** (level - 1))
        }
        pages = sorted({rank // per_page for rank in ranks})
        assert reads == pages
        assert _CountingPage.calls <= 4 * (len(ranks) + len(pages))
        # The lookup still finds the right keys.
        keys = sorted(k for k, _v in heap.scan())
        assert domain.sides[0].lo == keys[0]
        assert splits[0] == [(keys[n // 2],)]
        assert len(splits) == height - 1
