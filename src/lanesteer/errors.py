"""Exception hierarchy shared by the planner modules."""


class PlannerError(Exception):
    """Base class for all planner-specific failures."""


class StationRangeError(PlannerError, ValueError):
    """Station outside [0, total_length], or a look-ahead ran off the line end."""


class ProjectionAmbiguityError(PlannerError):
    """Two distinct closest points at (numerically) the same distance."""


class ArcCenterSingularityError(PlannerError):
    """Projection query issued exactly at the center of an arc segment."""


class SteeringDomainError(PlannerError, ValueError):
    """Front-wheel angle outside (-pi/2, pi/2)."""


class GeometryDegenerateError(PlannerError):
    """Vehicle orientation near-perpendicular to the reference line."""


class ShadowRegularityError(PlannerError):
    """Vehicle at or beyond the center of curvature of the shadow point."""


class NumericBlowupError(PlannerError):
    """Integration or the control law produced a non-finite value."""


class ScenarioFormatError(PlannerError, ValueError):
    """Scenario file could not be parsed."""


class ScenarioValidationError(PlannerError, ValueError):
    """Scenario file parsed but violates the schema."""
