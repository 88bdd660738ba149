"""The committed oracle constants in `tests/frozen.py` still reproduce.

`tests/make_fixtures.py --quick` recomputes every constant but the long
small-data run's; each must equal its frozen value, so a change that moves one
shows up here and not only when the tool is next run.
"""

import make_fixtures
from frozen import FROZEN


def test_quick_calibrations_equal_frozen_values():
    computed = make_fixtures.calibrations()
    assert computed == {key: FROZEN[key] for key in computed}
