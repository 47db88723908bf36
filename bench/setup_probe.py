"""Time resgraph's set-up in a fresh interpreter and print it in seconds,
scaled to the reference speed of ``speed.py``.

Set-up is ``import resgraph`` plus ``load_fixture`` for the six bundled
fixtures, which runs their embedded validation. The machine's speed is
sampled while it runs, as it is for the ops of a timed pass.

    python3 bench/setup_probe.py <path to the src directory>
"""

import sys
from time import perf_counter_ns

import speed


def measure() -> float:
    with speed.SpeedProbe() as probe:
        start = perf_counter_ns()
        import resgraph
        for name in resgraph.FIXTURE_NAMES:
            resgraph.load_fixture(name)
        end = perf_counter_ns()
        spent = probe.spent_ns
    return (end - start - spent) * probe.scale(start, end) / 1e9


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    print(repr(measure()))
