"""Two-cop strategy for dense geometric graphs on the unit square.

Cop 1 chases the vertical line through the robber, cop 2 (same logic with the
axes swapped) the horizontal one.  Each cop computes a continuous target point
y from the robber's last displacement and its stage, then moves to a vertex in
B(cop, r) ∩ B(y, s); density condition (†) guarantees that intersection holds
a vertex.  Stages per cop:

  S1  march toward the robber's line (jumps of ~r) until it is in reach;
  S2  climb the line toward the aim point P (offset r/3 behind the robber),
      gaining ground on every T1/T2 (resp. T1/T3) robber move and shadowing
      the robber's displacement otherwise;
  S3  sit on P and shadow.  From there T1/T2 moves land inside the cop's
      ball and are punished immediately.

The slack constants default to the analysis values (1e-7/1e-9 of r, aim
offset r/3, horizon 1000/r).  The full guarantee needs s < r^2/1e10, far
denser than anything desk-sized; with relaxed s the targets are additionally
clamped into B(cop, r) so every move stays legal and the structure is
preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..geograph import GeometricGraph
from ..geometry import clamp_to_square
from .engine import CopPolicy, GameView
from .movetypes import classify_move, displacement_polar


class DaggerViolationError(RuntimeError):
    """B(cop, r) ∩ B(target, s) held no vertex: density condition (†) failed."""

    def __init__(self, cop_id, round_index, target, s):
        super().__init__(
            f"cop {cop_id} round {round_index}: no vertex in "
            f"B(cop, r) ∩ B(({target[0]:.4f},{target[1]:.4f}), s={s:.5f})")
        self.cop_id = cop_id
        self.round_index = round_index
        self.target = target


@dataclass(frozen=True)
class StrategyConstants:
    """Tunable slack constants of the two-cop strategy."""

    r: float
    s: float
    eps7: float = 1e-7          # lateral slack, as a fraction of r
    eps9: float = 1e-9          # stage-1 exit band, as a fraction of r
    eps10: float = 1e-10        # faithful regime requires s < eps10 * r^2
    p_offset: float = 0.0       # aim-point offset; 0 means use r/3
    horizon_factor: float = 1000.0

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("StrategyConstants: s must be positive")
        if self.p_offset == 0.0:
            object.__setattr__(self, "p_offset", self.r / 3.0)
        if self.p_offset > self.r / 2.0:
            raise ValueError("StrategyConstants: aim offset must be <= r/2")

    @property
    def faithful(self) -> bool:
        """Whether s satisfies the strict density bound of the analysis."""
        return self.s < self.eps10 * self.r * self.r

    def horizon(self, relax: float = 1.0) -> int:
        return int(math.ceil(self.horizon_factor / self.r * relax))


def _swap(p):
    return (p[1], p[0])


class _AxisCop:
    """One cop of the pair; axis 1 runs the same logic with axes swapped."""

    def __init__(self, axis: int, constants: StrategyConstants):
        self.axis = axis
        self.k = constants
        self.stage = 1

    def _frame(self, p):
        return _swap(p) if self.axis == 1 else (p[0], p[1])

    def target(self, cop_xy, robber_xy, robber_prev_xy):
        """Continuous target point for this move, in world coordinates."""
        r, k = self.k.r, self.k
        c = self._frame(cop_xy)
        R = self._frame(robber_xy)
        P = self._frame(robber_prev_xy) if robber_prev_xy is not None else R

        if self.stage == 1:
            dx = R[0] - c[0]
            step = min(max(dx, -r), r)
            y = (c[0] + step, c[1])
            if abs(dx) <= r:
                self.stage = 2
            return self._finish(cop_xy, y)

        if self.stage == 2 and R[1] < k.p_offset:
            self.stage = 3

        if self.stage == 2:
            aim = (R[0], R[1] - k.p_offset)
            if math.hypot(c[0] - aim[0], c[1] - aim[1]) <= r:
                self.stage = 3
                return self._finish(cop_xy, aim)
            d, theta = displacement_polar(P, R)
            d = min(d, r)
            types = classify_move(d, theta, r)
            h = abs(R[0] - c[0])
            vmax = math.sqrt(max(r * r - h * h, 0.0))
            if "T1" in types:
                v = r * (1.0 - abs(math.cos(theta)) / 2.0 - k.eps7)
                y = (R[0], c[1] + min(v, vmax))
            elif "T2" in types:
                y = (R[0], min(c[1] + vmax, aim[1]))
            else:  # T3 / T4: shadow the displacement
                y = (c[0] + (R[0] - P[0]), c[1] + (R[1] - P[1]))
            return self._finish(cop_xy, y)

        # stage 3: keep shadowing (captures are handled by the caller)
        y = (c[0] + (R[0] - P[0]), c[1] + (R[1] - P[1]))
        return self._finish(cop_xy, y)

    def _finish(self, cop_xy, y_frame):
        y = _swap(y_frame) if self.axis == 1 else y_frame
        y = clamp_to_square(y)
        # with relaxed slack the ideal target can fall outside B(cop, r);
        # shrink along the chord so (†) still applies
        dx, dy = y[0] - cop_xy[0], y[1] - cop_xy[1]
        d = math.hypot(dx, dy)
        if d > self.k.r:
            f = self.k.r / d
            y = (cop_xy[0] + f * dx, cop_xy[1] + f * dy)
        return y


class TwoCopPolicy(CopPolicy):
    """The full two-cop pair; see the module docstring."""

    name = "two_cop"

    def __init__(self, g: GeometricGraph, constants: StrategyConstants):
        self.g = g
        self.k = constants
        self.cops = [_AxisCop(0, constants), _AxisCop(1, constants)]
        self.stage_log: list[tuple[int, int, int, int]] = []
        self.target_log: list[tuple[int, int, tuple, int]] = []

    def place(self, g, rng):
        v = g.nearest_vertex((0.0, 0.0))
        p = g.point(v)
        if math.hypot(p.x, p.y) > self.k.s:
            raise DaggerViolationError("placement", 0, (0.0, 0.0), self.k.s)
        return [v, v]

    def _pick(self, cop_id, round_index, cop_xy, y):
        cand = self.g.points_in_two_balls(cop_xy, self.k.r, y, self.k.s)
        if cand.size == 0:
            raise DaggerViolationError(cop_id, round_index, y, self.k.s)
        pts = self.g.pointset.coords[cand]
        d2 = (pts[:, 0] - y[0]) ** 2 + (pts[:, 1] - y[1]) ** 2
        return int(cand[int(d2.argmin())])

    def move(self, g, view: GameView, rng):
        robber_xy = g.point(view.robber)
        prev_xy = g.point(view.robber_prev) if view.robber_prev is not None else None
        out = []
        for i, (cop_v, axis_cop) in enumerate(zip(view.cops, self.cops)):
            cop_xy = g.point(cop_v)
            if math.hypot(cop_xy.x - robber_xy.x, cop_xy.y - robber_xy.y) <= self.k.r:
                out.append(view.robber)  # in reach: step onto the robber
                continue
            before = axis_cop.stage
            y = axis_cop.target(cop_xy, robber_xy, prev_xy)
            if axis_cop.stage != before:
                self.stage_log.append((view.round_index, i, before, axis_cop.stage))
            v = self._pick(i, view.round_index, cop_xy, y)
            self.target_log.append((view.round_index, i, y, v))
            out.append(v)
        return out
