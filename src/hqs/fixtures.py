"""Named fixture library: every running example ships as a JSON file."""

from __future__ import annotations

import json
from importlib import resources

from .core import load_system, system_from_json
from .errors import ScenarioError

FIXTURE_NAMES = (
    "fig1",             # running example
    "fig2",             # quorum graph example
    "fig4_q1_leave",    # trade-off example, leave variant
    "fig4_q1_remove",   # trade-off example, remove variant
    "fig4_q2",          # trade-off example for add
    "s5_base",          # reconfiguration-attack example, initial state
    "attack_s5",        # reconfiguration-attack example, post-state (inconsistent)
    "draft_cycle",      # three-cycle system lacking inclusion
    "draft_impl2",      # add-responsiveness example system
    "dqs",              # global-quorum dissemination system
    "pbqs_sample",      # a sharing-and-clusters sample
)


def fixture_json(name: str) -> dict:
    if name not in FIXTURE_NAMES:
        raise ScenarioError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    path = resources.files("hqs").joinpath("fixtures", f"{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def load_fixture(name: str):
    """Return the (QuorumSystem, Attack) pair for a named fixture."""
    return system_from_json(fixture_json(name))


def resolve_system(ref: str):
    """Accept either a fixture name or a path to a system JSON file."""
    if ref in FIXTURE_NAMES:
        return load_fixture(ref)
    return load_system(ref)
