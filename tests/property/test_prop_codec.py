"""Property tests pinning the batched fast paths to the legacy semantics.

Three families of invariants guard the wall-clock optimizations:

* the batched page codec (``pack_many``/``unpack_many``/``unpack_column``/
  ``PageView``) is byte- and value-identical to the per-record ``struct``
  codec across randomized schemas;
* the sort fast path (raw pages, index sorts, planned merge) produces the
  same record order as the streaming ``key=`` path — and charges the same
  simulated cost, access for access;
* ``key_field`` ordering equals the equivalent key callable's.
"""

import importlib
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acetree import AceBuildParams, build_ace_tree
from repro.core import Field, Schema
from repro.storage import CostModel, HeapFile, SimulatedDisk, external_sort
from repro.view import create_sample_view

ext_sort_mod = importlib.import_module("repro.storage.external_sort")

# -- randomized schemas -----------------------------------------------------

_field_strategy = st.sampled_from(
    [("i8", None), ("f8", None), ("bytes", 1), ("bytes", 5), ("bytes", 16)]
)


@st.composite
def schema_and_records(draw, max_records=60):
    kinds = draw(st.lists(_field_strategy, min_size=1, max_size=5))
    fields = [
        Field(f"f{i}", kind, size) if kind == "bytes" else Field(f"f{i}", kind)
        for i, (kind, size) in enumerate(kinds)
    ]
    schema = Schema(fields)
    value_strategies = []
    for kind, size in kinds:
        if kind == "i8":
            value_strategies.append(
                st.integers(min_value=-(2**63), max_value=2**63 - 1)
            )
        elif kind == "f8":
            value_strategies.append(st.floats(allow_nan=False, width=64))
        else:
            value_strategies.append(st.binary(min_size=size, max_size=size))
    records = draw(
        st.lists(st.tuples(*value_strategies), max_size=max_records)
    )
    return schema, records


def _legacy_blob(schema: Schema, records) -> bytes:
    """Reference encoding: one independent per-record struct per record."""
    fmt = "<" + "".join(
        f"{f.size}s" if f.kind == "bytes" else {"i8": "q", "f8": "d"}[f.kind]
        for f in schema.fields
    )
    one = struct.Struct(fmt)
    return b"".join(one.pack(*record) for record in records)


class TestBatchedCodecMatchesLegacy:
    @given(schema_and_records())
    @settings(max_examples=60, deadline=None)
    def test_pack_many_byte_identical(self, schema_records):
        schema, records = schema_records
        assert schema.pack_many(records) == _legacy_blob(schema, records)

    @given(schema_and_records())
    @settings(max_examples=60, deadline=None)
    def test_unpack_many_matches_per_record(self, schema_records):
        schema, records = schema_records
        blob = _legacy_blob(schema, records)
        size = schema.record_size
        per_record = [
            schema.unpack(blob[i * size:(i + 1) * size])
            for i in range(len(records))
        ]
        assert schema.unpack_many(blob, len(records)) == per_record

    @given(schema_and_records())
    @settings(max_examples=40, deadline=None)
    def test_page_view_and_columns_match(self, schema_records):
        schema, records = schema_records
        blob = schema.pack_many(records)
        decoded = schema.unpack_many(blob, len(records))
        view = schema.page_view(blob, len(records))
        assert view.records == decoded
        for index, field in enumerate(schema.fields):
            column = schema.unpack_column(blob, len(records), field.name)
            assert column == [r[index] for r in decoded]

    @given(schema_and_records())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_byte_identity(self, schema_records):
        """pack(unpack(x)) == x — the invariant that lets the sort move
        packed rows without decoding them."""
        schema, records = schema_records
        blob = schema.pack_many(records)
        assert schema.pack_many(schema.unpack_many(blob, len(records))) == blob


# -- sort fast path vs streaming path ---------------------------------------

SORT_SCHEMA = Schema([Field("k", "i8"), Field("v", "f8"), Field("tag", "bytes", 6)])

# Small key domain forces duplicate keys, so tie order (stability) is
# actually exercised; small memory_pages forces multi-run merges.
sort_records = st.lists(
    st.tuples(
        st.integers(min_value=-8, max_value=8),
        st.floats(allow_nan=False, width=64),
        st.binary(max_size=6),
    ),
    max_size=200,
)


def _sorted_run(records, memory_pages, fast, **sort_kwargs):
    """Sort on a fresh disk; returns (records, clock, stats tuple)."""
    disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
    heap = HeapFile.bulk_load(disk, SORT_SCHEMA, records)
    old = ext_sort_mod.USE_FAST_PATH
    ext_sort_mod.USE_FAST_PATH = fast
    try:
        out = external_sort(heap, memory_pages=memory_pages, **sort_kwargs)
    finally:
        ext_sort_mod.USE_FAST_PATH = old
    stats = disk.stats
    return (
        list(out.scan()),
        disk.clock,
        (stats.page_reads, stats.page_writes, stats.seeks),
    )


class TestFastPathEqualsStreamingPath:
    @given(sort_records, st.integers(3, 6))
    @settings(max_examples=25, deadline=None)
    def test_same_records_and_same_simulated_cost(self, records, memory_pages):
        key = SORT_SCHEMA.key_getter("k")
        fast = _sorted_run(records, memory_pages, fast=True, key=key)
        slow = _sorted_run(records, memory_pages, fast=False, key=key)
        assert fast[0] == slow[0]  # identical record order (incl. ties)
        assert fast[1] == slow[1]  # bit-identical simulated clock
        assert fast[2] == slow[2]  # same reads/writes/seeks

    @given(sort_records, st.integers(3, 6))
    @settings(max_examples=25, deadline=None)
    def test_key_field_equals_key_callable(self, records, memory_pages):
        by_field = _sorted_run(
            records, memory_pages, fast=True, key_field="k"
        )
        by_callable = _sorted_run(
            records, memory_pages, fast=True, key=lambda r: r[0]
        )
        assert by_field[0] == by_callable[0]
        assert by_field[1] == by_callable[1]

    @given(sort_records)
    @settings(max_examples=15, deadline=None)
    def test_index_sort_order_equals_list_sort(self, records):
        """The decorate/index-sort used by run generation reproduces
        ``sorted(key=...)`` exactly, ties included."""
        key = SORT_SCHEMA.key_getter("k")
        keys = list(map(key, records))
        order = sorted(range(len(records)), key=keys.__getitem__)
        assert [records[i] for i in order] == sorted(records, key=key)


def _store_image(tree) -> tuple[bytes, ...]:
    """Raw bytes of every data and directory page of a tree's leaf store,
    read without moving the simulated clock."""
    disk = tree.disk
    with disk.unmetered():
        return tuple(disk.read_page(pid) for pid in tree.leaf_store.page_ids)


def _with_fast_path(fast: bool, fn):
    old = ext_sort_mod.USE_FAST_PATH
    ext_sort_mod.USE_FAST_PATH = fast
    try:
        return fn()
    finally:
        ext_sort_mod.USE_FAST_PATH = old


class _LoggingDisk(SimulatedDisk):
    """A simulated disk that also logs every page access and per-record
    charge, in order, so two runs can be compared access for access."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.log: list[tuple] = []

    def read_page(self, pid: int) -> bytes:
        self.log.append(("read", pid))
        return super().read_page(pid)

    def touch_pages(self, pids) -> None:
        self.log.append(("touch", tuple(pids)))
        super().touch_pages(pids)

    def write_page(self, pid: int, data: bytes) -> None:
        self.log.append(("write", pid))
        super().write_page(pid, data)

    def charge_records(self, count: int) -> None:
        self.log.append(("charge", count))
        super().charge_records(count)


def _logging_disk() -> _LoggingDisk:
    return _LoggingDisk(page_size=1024, cost=CostModel.scaled(1024))


def _disk_outcome(disk):
    stats = disk.stats
    return (
        disk.clock, (stats.page_reads, stats.page_writes, stats.seeks), disk.log
    )


ace_record = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.floats(allow_nan=False, width=64),
    st.binary(max_size=6),
)


class TestAceBuildFastPathEquivalence:
    """The whole construction pipeline — vectorized decorate, planned
    merges, the byte-level leaf sink and its replayed page schedule —
    yields the same leaf-store bytes, the same reads/writes/seeks and the
    same simulated clock as the streaming implementation.  Small sort
    memory forces multi-run merges, so the planned final merge runs."""

    @given(
        st.lists(ace_record, min_size=8, max_size=240),
        st.integers(0, 3),
        st.sampled_from([3, 4, None]),
        st.sampled_from([2, 3]),
        st.integers(3, 6),
    )
    @example(
        records=[(i * 7919 % 1000, float(i), b"x") for i in range(200)],
        seed=1, height=None, arity=2, memory_pages=3,
    )
    @example(
        records=[(i * 7919 % 1000, float(i), b"") for i in range(200)],
        seed=2, height=3, arity=3, memory_pages=4,
    )
    @settings(max_examples=15, deadline=None)
    def test_build_identical_with_fast_path_off(
        self, records, seed, height, arity, memory_pages
    ):
        def build(fast):
            disk = _logging_disk()
            heap = HeapFile.bulk_load(disk, SORT_SCHEMA, records)
            tree = _with_fast_path(fast, lambda: build_ace_tree(
                heap,
                AceBuildParams(
                    key_fields=("k",), height=height, seed=seed, arity=arity,
                    memory_pages=memory_pages,
                ),
            ))
            outcome = _disk_outcome(disk)
            leaves = [
                tree.leaf_store.read_leaf(i)
                for i in range(tree.num_leaves)
            ]
            return outcome, tree.leaf_store.page_ids, _store_image(tree), leaves

        fast = build(True)
        slow = build(False)
        # Bit-identical clock, reads/writes/seeks, and the same accesses
        # and charges in the same order.
        assert fast[0] == slow[0]
        assert fast[1] == slow[1]  # same pages
        assert fast[2] == slow[2]  # byte-identical data and directory pages
        assert fast[3] == slow[3]

    @given(
        st.lists(ace_record, min_size=8, max_size=240),
        st.lists(ace_record, min_size=1, max_size=80),
        st.sampled_from([None, 3]),
        st.integers(3, 6),
    )
    @settings(max_examples=10, deadline=None)
    def test_refresh_identical_with_fast_path_off(
        self, records, fresh, height, memory_pages
    ):
        """A refresh (leaf rescan, then a rebuild through the leaf sink)
        costs and writes the same with the fast path on and off."""

        def refreshed(fast):
            disk = _logging_disk()
            heap = HeapFile.bulk_load(disk, SORT_SCHEMA, records)

            def run():
                view = create_sample_view(
                    "v", heap, ("k",), height=height,
                    memory_pages=memory_pages, seed=5,
                )
                view.insert(fresh)
                view.refresh()
                return view

            view = _with_fast_path(fast, run)
            return _disk_outcome(disk), _store_image(view.tree)

        assert refreshed(True) == refreshed(False)
