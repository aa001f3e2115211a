import csv

import pytest
from hypothesis import settings

from lanesteer.sim import Sample

# shared CI machines make per-example wall-clock deadlines flaky
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")


@pytest.fixture
def read_samples():
    """Test-side reader for the run CSV: the header must be Sample's fields and
    every row converts to a Sample."""

    def read(path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            assert tuple(next(reader)) == Sample._fields
            return [Sample(*map(float, row)) for row in reader]

    return read
