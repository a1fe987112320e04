"""The package's decision thresholds are module constants, not keywords.

Each floating-point cut that decides a discrete answer (kappa, q, a class)
is a named constant at its decision site.  Only comparators keep a
tolerance argument: the package calls them with more than one value, or
passes its constants through them.
"""

import inspect

import fspt

TOLERANCE_PARAMETERS = {"tol", "snap_tol", "rtol"}

COMPARATORS = {
    "sign_match",
    "is_selfadjoint_unitary",
    "validate_cocycle",  # 1e-9 for inputs, linalg.TOL from cocycle_of_rep
    "Phase.from_complex",  # validate_cocycle's tolerance, through Phase.coerce
    "Phase.coerce",
    "Phase.close_to",
    "Phase.is_one",
    "TwistedCocycle.close_to",
    "CocycleWitness.verify",
}


def public_functions():
    """Every public function, method and static method reachable from fspt.__all__."""
    seen = {}

    def visit(obj):
        if inspect.isclass(obj):
            for name in vars(obj):
                member = getattr(obj, name)
                if not name.startswith("_") and inspect.isfunction(member):
                    seen.setdefault(member.__qualname__, member)
        elif inspect.isfunction(obj):
            seen.setdefault(obj.__qualname__, obj)

    for name in fspt.__all__:
        obj = getattr(fspt, name)
        if inspect.ismodule(obj):
            for member_name, member in vars(obj).items():
                own = getattr(member, "__module__", None) == obj.__name__
                if own and not member_name.startswith("_"):
                    visit(member)
        else:
            visit(obj)
    return seen


def test_only_comparators_take_a_tolerance():
    found = {
        name: sorted(TOLERANCE_PARAMETERS & set(inspect.signature(func).parameters))
        for name, func in public_functions().items()
    }
    with_tolerance = {name for name, params in found.items() if params}
    assert with_tolerance - COMPARATORS == set()
    assert COMPARATORS - with_tolerance == set()  # the allow-list names live comparators
