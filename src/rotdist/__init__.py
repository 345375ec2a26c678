"""Elimination trees, rotations between them, and exact distance decisions."""

from .elimtree import (
    ROOT,
    ElimTree,
    apply_sequence,
    from_ordering,
    from_parent_vector,
    load_tree,
    rotate,
    save_tree,
    validate,
    validity_violations,
)
from .errors import (
    DisconnectedGraph,
    InstanceTooLarge,
    InvalidOrdering,
    InvalidParameter,
    InvalidTree,
    InvalidVertex,
    NotATreeEdge,
    RotDistError,
    SelfLoop,
)
from .flip import (
    FlipGraph,
    bfs_distance,
    bfs_witness,
    diameter,
    enumerate_all,
    neighbors,
)
from .fpt import (
    SAME,
    WANT_ROOT,
    BadnessReport,
    Component,
    Decision,
    TypeTable,
    check_early_no,
    classify_bad,
    components,
    compute_bcb,
    compute_marking,
    fpt_decide,
    mark,
    premark,
    want_parent,
)
from .graphs import Graph, generate, is_connected, load_graph, save_graph

__version__ = "0.1.0"
