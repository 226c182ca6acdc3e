"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class NotAxiallySymmetricError(InvalidArgumentError):
    """A tree operation requiring the leaf-negating involution was applied
    to a tree that does not admit one."""


class GroebnerBudgetError(RuntimeError):
    """The pair budget of a Groebner basis run was exhausted.

    Raised instead of silently truncating, with a pair still open, once the
    run has reduced ``budget`` S-pairs.  Carries the counters the run
    reached: the budget, how many of its pairs reduced to zero, and the
    number of elements of the (not yet reduced) basis.
    """

    def __init__(self, budget: int, zero_reductions: int = 0, basis_size: int = 0):
        super().__init__(
            f"Groebner pair budget exhausted: {budget} pairs reduced "
            f"(budget {budget}), {zero_reductions} of them to zero, "
            f"{basis_size} basis elements so far"
        )
        self.budget = budget
        self.zero_reductions = zero_reductions
        self.basis_size = basis_size

    def __reduce__(self):
        # the default rebuilds from the message alone, which breaks across
        # a process pool
        return type(self), (self.budget, self.zero_reductions, self.basis_size)

    @property
    def stats(self) -> dict:
        """The counters reached, under the keys of a run's ``stats``."""
        return {
            "pairs": self.budget,
            "zero_reductions": self.zero_reductions,
            "basis_size": self.basis_size,
        }


class InternalConsistencyError(AssertionError):
    """A structural invariant that is supposed to be unconditional failed.

    These indicate a bug, not bad input.
    """
