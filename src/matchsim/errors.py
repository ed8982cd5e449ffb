"""Exception hierarchy shared by all matchsim modules."""


class MatchsimError(Exception):
    """Base class for all errors raised by matchsim."""


class NotUnitary(MatchsimError):
    """A 2x2 block of a candidate matchgate is not unitary."""

    def __init__(self, which, residual):
        self.which = which
        self.residual = residual
        super().__init__(f"block {which!r} not unitary, max |U^H U - I| = {residual:.3e}")


class DeterminantMismatch(MatchsimError):
    """det(a) != det(b) for a candidate matchgate."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"det(a) != det(b), |det a - det b| = {residual:.3e}")


class CircuitSyntaxError(MatchsimError):
    """Malformed circuit file."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(MatchsimError):
    """A structural circuit invariant is violated."""

    def __init__(self, invariant, message):
        self.invariant = invariant
        super().__init__(f"[{invariant}] {message}")


class UnresolvedGuard(MatchsimError):
    """A guard references a measurement record with no assigned outcome."""


class Inapplicable(MatchsimError):
    """A valid input that the chosen backend cannot handle (CLI exit 3)."""


class NonRealResidual(MatchsimError):
    """A Majorana rotation entry came out complex; the gate is not a matchgate."""


class BlockTooLarge(Inapplicable):
    """An entangled input block exceeds the configured width cap."""


class BudgetExceeded(Inapplicable):
    """The estimated summand count exceeds the evaluation budget."""

    def __init__(self, count, budget):
        self.count = count
        self.budget = budget
        super().__init__(f"estimated term count {count} exceeds budget {budget}")


class ZeroProbabilityPrefix(MatchsimError):
    """Chain-rule sampling hit a prefix with probability below threshold."""


class NotSkew(MatchsimError):
    """Matrix handed to the Pfaffian is not antisymmetric within tolerance."""


class DecompositionFailure(MatchsimError):
    """Euler/canonical decomposition failed (input not unitary or residual too large)."""


class NoMagicAvailable(MatchsimError):
    """A swap gadget was requested but no unconsumed magic block exists."""


class UnsupportedLayout(MatchsimError):
    """Input specification cannot be lowered to canonical form."""


class CapExceeded(Inapplicable):
    """Oracle size or branch caps exceeded."""


class ZeroConditionMass(MatchsimError):
    """Post-selection constraint has (near-)zero probability mass."""


class BackendInapplicable(Inapplicable):
    """The requested backend cannot simulate the given circuit."""

    def __init__(self, backend, reason):
        self.backend = backend
        self.reason = reason
        super().__init__(f"backend {backend!r} inapplicable: {reason}")
