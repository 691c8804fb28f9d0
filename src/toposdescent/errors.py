"""Exception types shared across the library, and the one refusal helper."""


class BaseMismatchError(ValueError):
    """Two presheaves or maps live over different base posets or objects."""


class EmptyComponentError(ValueError):
    """A family has an initial component, violating the non-emptiness assumption."""


class ClosureError(ValueError):
    """A span class is missing elements required by its closure conditions."""


class IncompatibleFamilyError(ValueError):
    """A family of component maps does not factor through the coskeleton."""


class ConditionGFailure(ValueError):
    """A self-dual simplicial family fails the filling condition needed for
    its fundamental groupoid construction."""


class UndeterminedError(RuntimeError):
    """A bounded word-equality search exhausted its budget, so the verdict
    propagates as undetermined rather than true or false."""


class InvariantError(AssertionError):
    """A construction broke a guarantee it makes about its own output.

    Raised by explicit checks rather than ``assert`` statements, so the
    guarantee is still checked under ``python -O``."""


def refuse(faults, what):
    """Raise ``ValueError("<what>: <fault>; <fault>")`` if there are faults:
    how every checked entry refuses the input its validator faults."""
    if faults:
        raise ValueError(f"{what}: " + "; ".join(faults))
