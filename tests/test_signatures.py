import inspect

import pytest

from qanneal import baseline, circuit, cost, ensemble, statevec

# Size caps and tolerances are module constants (QANNEAL_MAX_QUBITS overrides
# the amplitude cap); no public function takes them per call.
REMOVED_KNOBS = {"cap", "fd_rel_step", "fd_rel_tol"}


@pytest.mark.parametrize("module", [cost, statevec, circuit, ensemble, baseline])
def test_no_public_function_takes_a_cap_or_tolerance(module):
    functions = [
        obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]
    assert functions
    for fn in functions:
        assert not REMOVED_KNOBS & set(inspect.signature(fn).parameters), fn.__qualname__
