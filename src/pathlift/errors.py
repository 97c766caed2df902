"""Exception taxonomy shared by all pathlift modules.

Every domain failure raises a subclass of :class:`PathliftError` so callers
(and the CLI, which maps them to exit code 1) can catch one base type.
"""


class PathliftError(Exception):
    pass


class ArchitectureError(PathliftError):
    """Structural problem in a network description."""


class CycleDetected(ArchitectureError):
    pass


class DanglingEdge(ArchitectureError):
    """Edge endpoint does not name a declared neuron."""


class DuplicateDeclaration(ArchitectureError):
    """Neuron id or edge declared twice."""


class BadPoolArity(ArchitectureError):
    """kpool order k outside 1..|antecedents|."""


class NonIdentityOutput(ArchitectureError):
    """Output neuron whose activation is not identity."""


class DimensionMismatch(PathliftError):
    pass


class UnknownNeuron(PathliftError):
    pass


class NonFiniteValue(PathliftError):
    """NaN or infinity in a parameter vector, an input, or a training step."""


class PathExplosion(PathliftError):
    """Path count exceeds the enumeration cap.

    Carries the exact count (computed in linear time, without enumerating)
    and the cap that was in force.
    """

    def __init__(self, count, limit):
        self.count = int(count)
        self.cap = int(limit)
        super().__init__(f"network has {self.count} paths, enumeration cap is {self.cap}")


class NonPositiveFactor(PathliftError):
    """Rescaling factor that is not strictly positive."""


class IneligibleNeuron(PathliftError):
    """Rescaling requested at an input or output neuron."""


class DominanceUnverified(PathliftError):
    """Neither path lifting dominates the other coordinatewise."""


class SignConditionViolated(PathliftError):
    """Some coordinate pair has theta_i * theta_i' < 0.

    Carries the offending coordinate names.
    """

    def __init__(self, coords):
        self.coords = list(coords)
        shown = ", ".join(str(c) for c in self.coords[:5])
        more = "" if len(self.coords) <= 5 else f" (+{len(self.coords) - 5} more)"
        super().__init__(f"sign condition fails at: {shown}{more}")


class MixedZeroCoordinate(PathliftError):
    """Exactly one endpoint of a trajectory coordinate is zero."""


class RaggedLayers(PathliftError):
    """MLP weight matrices whose shapes do not chain."""


class MissingData(PathliftError):
    """A data batch is required (loss-based scoring) but none was given."""


class InfeasibleAmount(PathliftError):
    """Pruning amount outside what the eligible coordinates allow."""


class ParseError(PathliftError):
    """Malformed network file or data batch."""
