"""Heterogeneous quorum system toolkit."""

from .core import (
    Attack,
    QuorumSystem,
    followers,
    is_active_blocking,
    is_blocking,
    is_system_quorum,
    minimal_quorums,
    new_quorum_system,
)
from .props import (
    PropertyReport,
    check_active_availability,
    check_active_inclusion,
    check_available_inside,
    check_availability,
    check_consistency,
    check_outlived,
    check_quorum_inclusion,
    check_quorum_sharing,
    check_tentative_inclusion,
    maximal_outlived_sets,
)
from .graph import build_graph, condense, in_sink, sink_components

__all__ = [name for name in dir() if not name.startswith("_")]
