"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class NotAxiallySymmetricError(InvalidArgumentError):
    """A tree operation requiring the leaf-negating involution was applied
    to a tree that does not admit one."""


class GroebnerBudgetError(RuntimeError):
    """The pair budget of a Groebner basis run was exhausted.

    Raised instead of silently truncating, with a pair still open.  Carries
    the counters the run reached: the S-pairs reduced, how many of them
    reduced to zero, and the number of elements of the (not yet reduced)
    basis.
    """

    def __init__(self, pairs_processed: int, budget: int, zero_reductions: int = 0, basis_size: int = 0):
        super().__init__(
            f"Groebner pair budget exhausted: {pairs_processed} pairs reduced "
            f"(budget {budget}), {zero_reductions} of them to zero, "
            f"{basis_size} basis elements so far"
        )
        self.pairs_processed = pairs_processed
        self.budget = budget
        self.zero_reductions = zero_reductions
        self.basis_size = basis_size

    def __reduce__(self):
        # the default rebuilds from the message alone, which breaks across
        # a process pool
        return type(self), (self.pairs_processed, self.budget, self.zero_reductions, self.basis_size)

    @property
    def stats(self) -> dict:
        """The counters reached, under the keys of a run's ``stats``."""
        return {
            "pairs": self.pairs_processed,
            "zero_reductions": self.zero_reductions,
            "basis_size": self.basis_size,
        }


class DegenerateIdealError(InvalidArgumentError):
    """An ideal handed to a tropical certification routine has a monomial
    generator, so every initial ideal contains a monomial and the
    certification question is vacuous."""


class InternalConsistencyError(AssertionError):
    """A structural invariant that is supposed to be unconditional failed.

    These indicate a bug, not bad input.
    """
