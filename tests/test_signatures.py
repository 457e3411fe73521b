import ast
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


# One size policy: the cost table and amplitude caps live in ``cost``, and each
# is checked where its array is allocated; the per-caller caps are gone.
@pytest.mark.parametrize("module", [cost, statevec, circuit, ensemble, baseline])
def test_no_module_keeps_a_per_caller_cap(module):
    for name in ("ENUMERATION_CAP", "BRUTE_FORCE_CAP", "BRUTE_FORCE_VERIFY_CAP"):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_statevec_reexports_the_one_cap_error():
    assert statevec.CapExceededError is cost.CapExceededError


@pytest.mark.parametrize("module", [ensemble, baseline])
def test_closed_form_layers_do_not_import_the_gate_engine(module):
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {name for name in imported if "statevec" in name}
    assert statevec not in vars(module).values()
