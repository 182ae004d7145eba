from dataclasses import replace

import pytest

from thermokmd.synth import default_room_spec, simulate_room


@pytest.fixture(scope="session")
def default_rooms():
    """The shipped room on seeds 0-7, simulated once: a list of (spec, record, events)."""
    specs = (replace(default_room_spec(), seed=seed) for seed in range(8))
    return [(spec, *simulate_room(spec)) for spec in specs]
