"""Unit tests for the shuffle helpers."""

from repro.common.sizing import sizeof_pair, sizeof_records
from repro.mapreduce.api import HashPartitioner
from repro.mapreduce.shuffle import bucket_bytes, group_by_key, partition_records


class TestPartitionRecords:
    def test_every_record_lands_somewhere(self):
        records = [(i, i) for i in range(100)]
        buckets, totals = partition_records(records, HashPartitioner(), 4)
        assert sum(len(b) for b in buckets) == 100
        assert sum(totals) == sizeof_records(records)

    def test_same_key_same_bucket(self):
        records = [("k", i) for i in range(10)]
        buckets, _ = partition_records(records, HashPartitioner(), 5)
        non_empty = [b for b in buckets if b]
        assert len(non_empty) == 1
        assert len(non_empty[0]) == 10

    def test_single_partition(self):
        records = [(i, i) for i in range(10)]
        buckets, totals = partition_records(records, HashPartitioner(), 1)
        assert len(buckets) == 1 and len(buckets[0]) == 10
        assert totals == [sizeof_records(records)]

    def test_empty_input(self):
        assert partition_records([], HashPartitioner(), 3) == (
            [[], [], []],
            [0, 0, 0],
        )

    def test_given_sizes_are_totalled_per_bucket(self):
        records = [(i, "v" * i) for i in range(20)]
        sizes = [sizeof_pair(k, v) for k, v in records]
        buckets, totals = partition_records(records, HashPartitioner(), 3, sizes)
        assert totals == [sizeof_records(b) for b in buckets]


class TestGroupByKey:
    def test_groups_values(self):
        groups = dict(group_by_key([("a", 1), ("b", 2), ("a", 3)]))
        assert groups == {"a": [1, 3], "b": [2]}

    def test_sorted_when_comparable(self):
        groups = group_by_key([("b", 1), ("a", 2), ("c", 3)])
        assert [k for k, _ in groups] == ["a", "b", "c"]

    def test_value_order_preserved_within_group(self):
        groups = dict(group_by_key([("a", 3), ("a", 1), ("a", 2)]))
        assert groups["a"] == [3, 1, 2]

    def test_uncomparable_keys_fall_back_to_first_seen(self):
        records = [(("t", 1), "x"), (5, "y"), (("t", 1), "z")]
        groups = group_by_key(records)
        assert dict(groups) == {("t", 1): ["x", "z"], 5: ["y"]}
        # A sort that fails part-way must not leave the groups half
        # sorted: the fallback is exactly first-seen order.
        records = [(3, "a"), (1, "b"), (2, "c"), ("x", "d"), (0, "e"), (1, "f")]
        groups = group_by_key(records)
        assert [k for k, _ in groups] == [3, 1, 2, "x", 0]
        assert dict(groups)[1] == ["b", "f"]

    def test_empty(self):
        assert group_by_key([]) == []


class TestBucketBytes:
    def test_zero_for_empty(self):
        assert bucket_bytes([]) == 0

    def test_counts_pairs(self):
        _, totals = partition_records([("ab", 1), ("c", 2.5)], HashPartitioner(), 2)
        assert bucket_bytes(totals) == (2 + 8) + (1 + 8)
