"""Bundled example graphs.

Each fixture ships as a JSON graph file under ``resgraph/data``, and
`load_fixture` parses it like any other graph file. The facts each one is
bundled for (its classification, sequence length, stored cycles and, for
the two large graphs transcribed from a figure, the criterion verdicts)
are pinned by the test suite, so a transcription slip fails there.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .errors import UserError, quote
from .graphio import GraphFile, parse_graph_data

__all__ = ["FIXTURE_NAMES", "is_fixture_name", "load_fixture"]

FIXTURE_NAMES = ("g_app", "g_new", "g_noecc", "g_pole", "g_left", "g_right")


def is_fixture_name(name: str) -> bool:
    return name.lower() in FIXTURE_NAMES


@lru_cache(maxsize=None)
def load_fixture(name: str) -> GraphFile:
    """Load and parse a bundled fixture by name."""
    key = name.lower()
    if key not in FIXTURE_NAMES:
        raise UserError(
            f"unknown fixture {quote(name)}; available: {', '.join(FIXTURE_NAMES)}")
    data = json.loads(
        resources.files("resgraph.data").joinpath(f"{key}.json").read_text())
    return parse_graph_data(data)
