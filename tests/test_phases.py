import cmath

import pytest

from fspt import Phase
from fspt.errors import NotUnitPhase


def test_exact_canonical_form():
    assert Phase.exact(4, 8) == Phase.exact(1, 2)
    assert Phase.exact(8, 8) == Phase.one()
    assert Phase.exact(-1, 4) == Phase.exact(3, 4)


def test_value_special_points():
    assert Phase.one().value == 1
    assert Phase.minus_one().value == -1
    assert abs(Phase.exact(1, 4).value - 1j) < 1e-15


def test_float_mode():
    z = cmath.exp(2j * cmath.pi * 3 / 8) * (1 + 1e-12)
    p = Phase.from_complex(z)
    assert not p.is_exact


def test_non_unit_rejected():
    with pytest.raises(NotUnitPhase):
        Phase.from_complex(1.1)


def test_coerce_int_signs():
    assert Phase.coerce(1).is_one()
    assert Phase.coerce(-1) == Phase.minus_one()
