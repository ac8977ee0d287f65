"""The unordered partition stream as a recursive generator, the reference for the walk.

Production runs the block-by-block walk as one loop over an explicit stack
(``partitions._block_walk``); this module runs the same walk as one generator
per level, chained by ``yield from``, so the two must agree tuple for tuple.
Shards are cut by the production ``_first_block_run``, which the walk does
not touch.
"""

from stirlingzero.partitions import _first_block_run


def block_walk(rest, blocks):
    """Partitions of the elements of ``rest``, appended to ``blocks``: the next block
    is the lowest element of ``rest`` with each subset of the others in increasing order."""
    if not rest:
        yield tuple(blocks)
        return
    low = rest & -rest
    others = rest ^ low
    sub = 0
    while True:
        blocks.append(low | sub)
        yield from block_walk(others ^ sub, blocks)
        blocks.pop()
        if sub == others:
            return
        sub = (sub - others) & others  # next subset of ``others`` in increasing order


def unordered_partitions(g, part=0, parts=1):
    """Shard ``part`` of ``parts`` of the stream of ``partitions.iter_unordered_partitions``."""
    full = (1 << g) - 1
    for m in _first_block_run(g, part, parts):
        first = (m << 1) | 1
        yield from block_walk(full ^ first, [first])
