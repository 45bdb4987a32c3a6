"""eqsim - cluster-rendering machinery without the GPUs.

A library implementing the non-graphics core of a parallel rendering
framework: reliable UDP multicast with versioned distributed objects,
compound-tree task decomposition and compositing, and a deterministic
network simulator to exercise the multicast protocol.

Subpackages
-----------
codec      byte streams, chunking, compression engine registry
net        unicast connections, the reliable multicast protocol, nodes
objects    versioned master/slave objects, barriers, queues, object maps
compound   config parsing, channel derivation, task generation, compositing

Quick start
-----------
>>> from eqsim.compound import generate_tasks, parse_config
>>> cfg = parse_config('compound { channel "dest" }')
>>> [task.channel for task in generate_tasks(cfg.compounds[0], frame=0)]
['dest']
"""

from .codec import (
    InputStream,
    OutputStream,
    codec_benchmark,
    get_engine,
    register_engine,
    registered_engines,
    rle_compress,
    rle_decompress,
)

__version__ = "0.1.0"

