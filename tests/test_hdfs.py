"""Unit tests for HDFS blocks, placement, NameNode and the locality index."""

import numpy as np
import pytest

from repro.hdfs.block import Block
from repro.hdfs.locality import LocalityIndex
from repro.hdfs.namenode import NameNode
from repro.hdfs.placement import RandomPlacement, RoundRobinPlacement


def blocks_for(replicas_map):
    return [
        Block(block_id=i, file="f", size_mb=8.0, replicas=tuple(reps))
        for i, reps in enumerate(replicas_map)
    ]


# ---------------------------------------------------------------------------
# Block
# ---------------------------------------------------------------------------
def test_block_locality_and_work():
    b = Block(1, "f", 8.0, replicas=("a", "b"), cost_factor=1.5)
    assert b.is_local_to("a") and not b.is_local_to("c")
    assert b.work_mb == 12.0


def test_block_validation():
    with pytest.raises(ValueError):
        Block(1, "f", 0.0)
    with pytest.raises(ValueError):
        Block(1, "f", 8.0, cost_factor=0.0)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------
def test_round_robin_stripes_evenly():
    p = RoundRobinPlacement()
    out = p.place(6, ["a", "b", "c"], replication=2, rng=np.random.default_rng(0))
    assert out[0] == ("a", "b")
    assert out[1] == ("b", "c")
    counts = {}
    for reps in out:
        for r in reps:
            counts[r] = counts.get(r, 0) + 1
    assert set(counts.values()) == {4}


def test_random_placement_distinct_nodes():
    p = RandomPlacement()
    out = p.place(50, ["a", "b", "c", "d"], replication=3, rng=np.random.default_rng(0))
    for reps in out:
        assert len(set(reps)) == 3


def _choice_loop(rng, n, r, num_blocks):
    return [tuple(int(p) for p in rng.choice(n, size=r, replace=False))
            for _ in range(num_blocks)]


def _assert_replays_choice(make_rng, n, r, num_blocks):
    """RandomPlacement equals a plain ``rng.choice`` loop: same picks, same
    generator state afterwards, same next draw."""
    reference, placed = make_rng(), make_rng()
    want = _choice_loop(reference, n, r, num_blocks)
    got = RandomPlacement().place(num_blocks, list(range(n)), r, placed)
    assert got == want
    np.testing.assert_equal(placed.bit_generator.state, reference.bit_generator.state)
    assert placed.random() == reference.random()


# (nodes, replication, blocks): the paper's 11/3 and 40/3 clusters, n = r,
# r = 1, the smallest n, and small n where Floyd's collisions are common.
PLACEMENT_SHAPES = [(11, 3, 300), (40, 3, 300), (12, 3, 135), (3, 3, 60),
                    (6, 3, 60), (5, 1, 60), (2, 2, 60), (2, 1, 60), (1, 1, 5)]


@pytest.mark.parametrize("seed", range(20))
def test_random_placement_replays_rng_choice_exactly(seed):
    for n, r, num_blocks in PLACEMENT_SHAPES:
        def make_rng():
            rng = np.random.default_rng(seed)
            rng.integers(0, 5)
            assert rng.bit_generator.state["has_uint32"]  # starts mid-word
            return rng

        _assert_replays_choice(make_rng, n, r, num_blocks)


@pytest.mark.parametrize("half_word", [0, 5 * pow(9, -1, 2**32) % 2**32])
@pytest.mark.parametrize("num_blocks", [40, 41])
def test_random_placement_replays_lemire_rejections(half_word, num_blocks):
    # The first draw, in [0, 8] on 11 nodes, uses the buffered half word.
    # Times 9, 0 has a low word under 2**32 % 9 == 4 and is redrawn; 5/9
    # mod 2**32 has a low word of 5, under 9 but not under 4, and is kept.
    # An odd block count leaves no spare half word, so a redraw needs one
    # more raw word.
    def make_rng():
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, half_word
        rng.bit_generator.state = state
        return rng

    _assert_replays_choice(make_rng, 11, 3, num_blocks)


def test_random_placement_falls_back_to_choice_for_other_generators():
    def make_rng():
        rng = np.random.Generator(np.random.MT19937(7))
        rng.integers(0, 5)
        return rng

    _assert_replays_choice(make_rng, 11, 3, 300)


def test_replication_capped_by_cluster_size():
    p = RoundRobinPlacement()
    out = p.place(3, ["a", "b"], replication=3, rng=np.random.default_rng(0))
    assert all(len(reps) == 2 for reps in out)


# ---------------------------------------------------------------------------
# NameNode
# ---------------------------------------------------------------------------
def test_create_file_splits_and_places():
    nn = NameNode(["a", "b", "c"], replication=2)
    blocks = nn.create_file("f", size_mb=100.0, block_size_mb=32.0)
    assert len(blocks) == 4
    assert [b.size_mb for b in blocks] == [32.0, 32.0, 32.0, 4.0]
    assert sum(b.size_mb for b in blocks) == 100.0
    assert all(len(b.replicas) == 2 for b in blocks)


def test_create_file_cost_factors():
    nn = NameNode(["a"], replication=1)
    blocks = nn.create_file("f", 64.0, 16.0, cost_factors=np.array([1.0, 2.0, 0.5, 1.5]))
    assert [b.cost_factor for b in blocks] == [1.0, 2.0, 0.5, 1.5]


def test_namenode_places_randomly_by_default():
    nn = NameNode(["a", "b", "c", "d"], rng=np.random.default_rng(3))
    blocks = nn.create_file("f", 80.0, 8.0)
    expected = RandomPlacement().place(10, ["a", "b", "c", "d"], 3, np.random.default_rng(3))
    assert isinstance(nn.policy, RandomPlacement)
    assert [b.replicas for b in blocks] == expected


def test_duplicate_file_rejected():
    nn = NameNode(["a"])
    nn.create_file("f", 10.0, 5.0)
    with pytest.raises(ValueError):
        nn.create_file("f", 10.0, 5.0)


def test_blocks_on_node():
    nn = NameNode(["a", "b", "c"], replication=1, policy=RoundRobinPlacement())
    nn.create_file("f", 48.0, 16.0)
    assert len(nn.blocks_on_node("f", "a")) == 1


def test_block_ids_unique_across_files():
    nn = NameNode(["a"])
    b1 = nn.create_file("f1", 10.0, 5.0)
    b2 = nn.create_file("f2", 10.0, 5.0)
    ids = [b.block_id for b in b1 + b2]
    assert len(set(ids)) == len(ids)


def test_namenode_validation():
    with pytest.raises(ValueError):
        NameNode([])
    with pytest.raises(ValueError):
        NameNode(["a"], replication=0)
    nn = NameNode(["a"])
    with pytest.raises(ValueError):
        nn.create_file("f", 0.0, 8.0)


# ---------------------------------------------------------------------------
# LocalityIndex — the NodeToBlock / BlockToNode maps of LTB
# ---------------------------------------------------------------------------
def test_index_initial_maps():
    idx = LocalityIndex(blocks_for([("a", "b"), ("b", "c"), ("a", "c")]))
    assert idx.unprocessed == 3
    assert idx.local_count("a") == 2
    assert idx.local_count("b") == 2
    assert idx.node_to_block["a"] == {0, 2}
    assert idx.block_to_node[1] == {"b", "c"}


def test_take_removes_from_both_maps():
    idx = LocalityIndex(blocks_for([("a", "b"), ("b", "c")]))
    idx.take(0)
    assert idx.unprocessed == 1
    assert idx.local_count("a") == 0
    assert 0 not in idx.block_to_node
    assert idx.node_to_block["b"] == {1}


def test_take_twice_raises():
    idx = LocalityIndex(blocks_for([("a",)]))
    idx.take(0)
    with pytest.raises(KeyError):
        idx.take(0)


def test_put_back_restores():
    blocks = blocks_for([("a", "b")])
    idx = LocalityIndex(blocks)
    b = idx.take(0)
    idx.put_back(b)
    assert idx.unprocessed == 1
    assert idx.local_count("a") == 1
    with pytest.raises(KeyError):
        idx.put_back(b)  # not taken anymore


def test_take_for_node_prefers_local():
    idx = LocalityIndex(blocks_for([("a",), ("a",), ("b",), ("b",)]))
    local, remote = idx.take_for_node("a", 2)
    assert len(local) == 2 and len(remote) == 0
    assert all(b.is_local_to("a") for b in local)


def test_take_for_node_falls_back_to_busiest_remote():
    idx = LocalityIndex(blocks_for([("a",), ("b",), ("b",), ("c",)]))
    local, remote = idx.take_for_node("a", 3)
    assert len(local) == 1
    assert len(remote) == 2
    # The busiest donor is "b" with two unprocessed blocks.
    assert remote[0].is_local_to("b")


def test_take_for_node_exhausts_gracefully():
    idx = LocalityIndex(blocks_for([("a",), ("b",)]))
    local, remote = idx.take_for_node("a", 10)
    assert len(local) + len(remote) == 2
    assert idx.unprocessed == 0


def test_each_block_processed_exactly_once():
    reps = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b"), ("b", "c")]
    idx = LocalityIndex(blocks_for(reps))
    seen = []
    for node in ["a", "b", "c", "a", "b", "c"]:
        local, remote = idx.take_for_node(node, 1)
        seen.extend(b.block_id for b in local + remote)
    assert sorted(seen) == [0, 1, 2, 3, 4]
    assert idx.unprocessed == 0


def test_busiest_node_excludes_and_tie_breaks():
    idx = LocalityIndex(blocks_for([("a",), ("b",)]))
    assert idx.busiest_node(exclude="a") == "b"
    # tie between a and b -> lexicographic
    assert idx.busiest_node() == "a"


def test_take_for_node_rejects_zero():
    idx = LocalityIndex(blocks_for([("a",)]))
    with pytest.raises(ValueError):
        idx.take_for_node("a", 0)
