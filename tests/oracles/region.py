"""The feasible set of the parameter search in closed form, per k.

With the derived gamma and lambda0 of a grid point, the paper's rows
reduce at each k to one open interval of gamma and one lower bound on
lambda0.  Write a = |kappa0| and R = min(c1 v / W, sqrt(c2 v / W)).

* Corner cutting (kappa0 != 0): the rows `gamma_range`, `k_below_upper`,
  `k_above_lower` and `steady_lateral_bound`, each solved for gamma, give
  max(GAMMA_LOWER, 1 / (1 + (a/k)^2)) < gamma < min(1, (k/a)^2 - 1,
  c3 k^2 / a).  A straight lane has no window.
* Oscillation: 0 < lambda0 < 1.
* Abort safety: with 1/sqrt(lam) = k v / lambda0 the peak is
  k v lambda0^(lambda0 / (1 - lambda0)).  The log of its factor,
  lambda0 log lambda0 / (1 - lambda0), has the derivative
  (log lambda0 + 1 - lambda0) / (1 - lambda0)^2 <= 0, so the factor falls
  from 1 to 1/e on (0, 1): every lambda0 passes where k v <= R, none where
  k v >= e R, and in between exactly those above one root, found here by
  bisection.

Standard library only, and none of the search's premises: no bisected
gate, no bounding grid corners, no results shared per derived lambda0.
"""

import math

GAMMA_LOWER = (math.sqrt(5.0) - 1.0) / 2.0

INSIDE, OUTSIDE = True, False


def gamma_interval(k: float, kappa0: float, c3: float) -> tuple[float, float]:
    """The open interval of gamma where the corner-cutting rows hold at k;
    (0, inf) on a straight lane."""
    a = abs(kappa0)
    if a == 0:
        return 0.0, math.inf
    # products, not ** 2, which raises OverflowError for a tiny a
    return (max(GAMMA_LOWER, 1.0 / (1.0 + (a / k) * (a / k))),
            min(1.0, (k / a) * (k / a) - 1.0, c3 * k * k / a))


def lambda0_lower(k: float, v: float, lane_width: float, c1: float,
                  c2: float) -> float:
    """The lambda0 above which abort safety holds at k: 0 where every
    lambda0 in (0, 1) passes, 1 where none does."""
    kv = k * v
    limit = min(c1 * v / lane_width, math.sqrt(c2 * v / lane_width))
    if kv <= limit:
        return 0.0
    if kv >= math.e * limit:
        return 1.0
    # the root of lambda0 log lambda0 / (1 - lambda0) = log(R / (k v)),
    # whose left side falls from 0 to -1 on (0, 1)
    target = math.log(limit / kv)
    lo, hi = 0.0, 1.0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return hi
        if mid * math.log(mid) / (1.0 - mid) > target:
            lo = mid
        else:
            hi = mid


def side(x: float, inner: tuple[float, float], outer: tuple[float, float]):
    """INSIDE where x lies in the open interval `inner`, OUTSIDE where it
    does not lie in the open interval `outer`, which holds `inner`, and
    None in between: there the search's float verdict may go either way."""
    if inner[0] < x < inner[1]:
        return INSIDE
    if not outer[0] < x < outer[1]:
        return OUTSIDE
    return None
