"""Geometric two-point steering planner for lane tracking.

Closed-loop lateral control of a kinematic bicycle model converging to a
piecewise line/arc reference line, with closed-form safety analysis and a
deterministic simulator.
"""

__version__ = "0.1.0"
