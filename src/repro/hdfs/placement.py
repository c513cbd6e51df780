"""Replica placement policies.

HDFS spreads ``replication`` copies of each block across distinct nodes.
The paper uses the default replication factor 3 and notes that on small
clusters this creates substantial data redundancy (each 12-node worker sees
~25% of the input), which FlexMap exploits for local BU provisioning.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
# Above this population numpy's ``choice`` may switch from Floyd's selection
# to a tail shuffle, which the batch replay does not model.
_FLOYD_MAX_POPULATION = 10000


class PlacementPolicy:
    """Chooses the nodes that store each block's replicas."""

    def place(
        self,
        num_blocks: int,
        node_ids: list[str],
        replication: int,
        rng: np.random.Generator,
    ) -> list[tuple[str, ...]]:
        """Replica node-sets for each of ``num_blocks`` blocks."""
        raise NotImplementedError


class RoundRobinPlacement(PlacementPolicy):
    """Deterministic striping: block *i* goes to nodes ``i, i+1, ... i+r-1``.

    Produces perfectly even block counts per node, which is the idealized
    balanced-HDFS assumption behind Fig. 2's worked example.
    """

    def place(self, num_blocks, node_ids, replication, rng):
        """Replica node-sets for each of ``num_blocks`` blocks."""
        n = len(node_ids)
        r = min(replication, n)
        return [
            tuple(node_ids[(i + j) % n] for j in range(r))
            for i in range(num_blocks)
        ]


class RandomPlacement(PlacementPolicy):
    """Random distinct-node placement, closer to real HDFS behaviour.

    Each block's replicas are ``rng.choice(n, size=r, replace=False)``.  A
    ``PCG64`` generator places the whole file in one batch
    (:func:`_replay_choice`) with the same picks and the same generator
    state afterwards; any other generator calls ``choice`` per block.
    """

    def place(self, num_blocks, node_ids, replication, rng):
        """Replica node-sets for each of ``num_blocks`` blocks."""
        n = len(node_ids)
        r = min(replication, n)
        if type(rng.bit_generator) is np.random.PCG64 and n <= _FLOYD_MAX_POPULATION:
            return [
                tuple([node_ids[p] for p in picks])
                for picks in _replay_choice(rng.bit_generator, n, r, num_blocks)
            ]
        out: list[tuple[str, ...]] = []
        for _ in range(num_blocks):
            picks = rng.choice(n, size=r, replace=False)
            out.append(tuple(node_ids[int(p)] for p in picks))
        return out


def _replay_choice(bitgen: np.random.PCG64, n: int, r: int, count: int) -> list[list[int]]:
    """``count`` successive ``Generator.choice(n, r, replace=False)`` results.

    Replays numpy's algorithm in plain ints.  Floyd's selection draws in
    ``[0, j]`` for ``j = n-r .. n-1`` and takes ``j`` itself when the draw
    repeats an earlier pick; ``_shuffle_int`` then swaps position ``i`` with
    a draw in ``[0, i]`` for ``i = r-1 .. 1``.  A draw in ``[0, 0]`` is 0 and
    takes no bits.  Any other draw is Lemire's bounded method on one 32-bit
    half of a raw 64-bit word, low half first, starting from a half word the
    generator may already hold.

    Each draw takes at least one half word, so that many are drawn up front;
    a Lemire rejection draws one more word only when the halves run short.
    The generator therefore advances by exactly the words ``choice`` takes,
    and its half-word buffer is set to what ``choice`` would leave.
    """
    floyd = range(n - r, n)
    shuffle = range(r - 1, 0, -1)
    draws = count * (len(floyd) - (n == r) + len(shuffle))
    if not draws:
        return [[0] for _ in range(count)]
    state = bitgen.state
    halves = [state["uinteger"]] if state["has_uint32"] else []
    words = bitgen.random_raw((draws - len(halves) + 1) // 2)
    halves += np.column_stack((words & _MASK32, words >> 32)).ravel().tolist()
    redraws = 0

    def reject(m: int, excl: int, pos: int) -> tuple[int, int]:
        # Lemire's rejection loop, entered when the low word is < excl.
        nonlocal redraws
        threshold = (0x100000000 - excl) % excl
        while m & _MASK32 < threshold:
            redraws += 1
            if draws + redraws > len(halves):
                extra = int(bitgen.random_raw())
                halves.extend((extra & _MASK32, extra >> 32))
            m = halves[pos] * excl
            pos += 1
        return m, pos

    pos = 0
    out: list[list[int]] = []
    for _ in range(count):
        picks: list[int] = []
        for j in floyd:
            if not j:
                picks.append(0)
                continue
            excl = j + 1
            m = halves[pos] * excl
            pos += 1
            if m & _MASK32 < excl:
                m, pos = reject(m, excl, pos)
            val = m >> 32
            picks.append(j if val in picks else val)
        for i in shuffle:
            excl = i + 1
            m = halves[pos] * excl
            pos += 1
            if m & _MASK32 < excl:
                m, pos = reject(m, excl, pos)
            k = m >> 32
            picks[k], picks[i] = picks[i], picks[k]
        out.append(picks)
    # ``choice`` keeps the last word's high half whether or not it used it.
    state = bitgen.state
    state["has_uint32"] = int(pos < len(halves))
    state["uinteger"] = halves[-1]
    bitgen.state = state
    return out
