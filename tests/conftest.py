from dataclasses import replace

import numpy as np
import pytest

from thermokmd.synth import default_room_spec, simulate_room


def assert_same_text(got, want):
    """``assert got == want`` for two texts (or byte strings), reporting the first line that differs.

    pytest explains a failing ``==`` of long texts (and of bytes or lists
    under ``-v`` or on CI) with a difflib diff, which is quadratic in the
    lines and can take minutes on an artifact.  This asserts instead on the
    index of the first differing line and that line in each, which is the
    same test.
    """
    if got == want:
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    assert (i, a[i:i + 1]) == (i, b[i:i + 1])


@pytest.fixture(scope="session")
def default_rooms():
    """The shipped room on seeds 0-7, simulated once: a list of (spec, record, events)."""
    specs = (replace(default_room_spec(), seed=seed) for seed in range(8))
    return [(spec, *simulate_room(spec)) for spec in specs]


#: each LAPACK solve of the two fits: (method, numpy.linalg routine, which call
#: of it in the fit, the step its NumericalError names)
FIT_SOLVES = [
    ("companion", "lstsq", 1, "recurrence least-squares solve"),
    ("companion", "eigvals", 1, "companion eigenvalue solve"),
    ("companion", "lstsq", 2, "mode least-squares solve"),
    ("hankel", "svd", 1, "Hankel SVD"),
    ("hankel", "eig", 1, "Hankel eigenvalue solve"),
    ("hankel", "lstsq", 1, "mode amplitude solve"),
]


@pytest.fixture(params=FIT_SOLVES, ids=[f"{m}-{step}" for m, _, _, step in FIT_SOLVES])
def failing_solve(request, monkeypatch):
    """(method, step) with that step's numpy routine raising LinAlgError on its call in the fit."""
    method, name, call, step = request.param
    routine, calls = getattr(np.linalg, name), 0

    def failing(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == call:
            raise np.linalg.LinAlgError("injected failure")
        return routine(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, failing)
    return method, step
