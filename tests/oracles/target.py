"""The line a scenario's controller follows at time t, stated by itself.

A lane change follows the track offset by `lane_change_offset` along its
+normal; an abort returns to the track from `abort_time` on.  Tests hold
`sim.run`, which finds the swap once per run, to this rule.
"""


def target_at(scenario, t):
    """Line the controller follows at time t, built anew on each call: the
    track's line, or its offset line."""
    track = scenario.track.line()
    if scenario.lane_change_offset is None or (
        scenario.abort_time is not None and t >= scenario.abort_time
    ):
        return track
    return track.parallel_offset(scenario.lane_change_offset)
