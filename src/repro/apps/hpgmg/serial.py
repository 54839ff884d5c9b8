"""Serial geometric multigrid: the validation oracle and the agglomerated
coarse-grid solver used by the distributed V-cycle (HPGMG gathers coarse
levels onto few ranks exactly the same way).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.apps.hpgmg.ops import (
    alloc_field,
    interior,
    jacobi,
    norm2,
    prolong_fv,
    residual,
    restrict_fv,
)
from repro.util.errors import ConfigError


class SerialMg:
    """V-cycle solver on one process.

    Levels coarsen by 2x in every dimension while all dimensions stay even
    and >= 2; the coarsest level is relaxed to convergence with Jacobi.
    """

    def __init__(self, shape: Tuple[int, int, int], h: float,
                 nu_pre: int = 2, nu_post: int = 2, nu_coarse: int = 60,
                 smoother: str = "gsrb"):
        nz, nx, ny = shape
        if min(shape) < 2:
            raise ConfigError(f"grid {shape} too small for multigrid")
        if smoother not in ("gsrb", "jacobi"):
            raise ConfigError(f"unknown smoother {smoother!r}")
        self.smoother = smoother
        self.nu_pre, self.nu_post, self.nu_coarse = nu_pre, nu_post, nu_coarse
        self.shapes: List[Tuple[int, int, int]] = [shape]
        self.hs: List[float] = [h]
        while all(d % 2 == 0 and d >= 4 for d in self.shapes[-1]):
            nz, nx, ny = self.shapes[-1]
            self.shapes.append((nz // 2, nx // 2, ny // 2))
            self.hs.append(self.hs[-1] * 2.0)

    @property
    def nlevels(self) -> int:
        return len(self.shapes)

    def _smooth(self, u: np.ndarray, f: np.ndarray, h: float, sweeps: int) -> None:
        if self.smoother == "gsrb":
            from repro.apps.hpgmg.ops import gsrb
            for _ in range(sweeps):
                gsrb(u, f, h, 0)
                gsrb(u, f, h, 1)
        else:
            for _ in range(sweeps):
                interior(u)[...] = jacobi(u, f, h)

    def vcycle(self, u: np.ndarray, f: np.ndarray, level: int = 0) -> None:
        """One V-cycle in place on ``u`` (ghosted field) at ``level``."""
        h = self.hs[level]
        if level == self.nlevels - 1:
            self._smooth(u, f, h, self.nu_coarse)
            return
        self._smooth(u, f, h, self.nu_pre)
        r = residual(u, f, h)
        fc = alloc_field(self.shapes[level + 1])
        interior(fc)[...] = restrict_fv(r)
        uc = alloc_field(self.shapes[level + 1])
        self.vcycle(uc, fc, level + 1)
        interior(u)[...] += prolong_fv(interior(uc))
        self._smooth(u, f, h, self.nu_post)

    def fcycle(self, u: np.ndarray, f: np.ndarray) -> None:
        """One full-multigrid (F-)cycle in place: restrict the problem all
        the way down, then work back up, seeding each level with the
        prolonged coarse solution before its V-cycle. HPGMG's headline
        algorithm ("implements full multigrid"); reaches discretization
        accuracy in O(1) fine-grid work."""
        from repro.apps.hpgmg.ops import interior as _interior

        # Build the RHS hierarchy by restriction of f.
        fs = [f]
        for lvl in range(1, self.nlevels):
            fc = alloc_field(self.shapes[lvl])
            _interior(fc)[...] = restrict_fv(_interior(fs[-1]))
            fs.append(fc)
        # Coarsest solve.
        us = alloc_field(self.shapes[-1])
        self._smooth(us, fs[-1], self.hs[-1], self.nu_coarse)
        # Walk back up: prolong the solution, then one V-cycle per level.
        for lvl in range(self.nlevels - 2, -1, -1):
            u_lvl = alloc_field(self.shapes[lvl])
            _interior(u_lvl)[...] = prolong_fv(_interior(us))
            self.vcycle(u_lvl, fs[lvl], lvl)
            us = u_lvl
        u[...] = us

    def fmg_solve(self, f: np.ndarray, *, vcycles: int = 2
                  ) -> Tuple[np.ndarray, List[float]]:
        """F-cycle start followed by ``vcycles`` V-cycles; returns
        (u, residual history)."""
        shape = self.shapes[0]
        fg = alloc_field(shape)
        interior(fg)[...] = f
        u = alloc_field(shape)
        history = [np.sqrt(norm2(residual(u, fg, self.hs[0])))]
        self.fcycle(u, fg)
        history.append(np.sqrt(norm2(residual(u, fg, self.hs[0]))))
        for _ in range(vcycles):
            self.vcycle(u, fg)
            history.append(np.sqrt(norm2(residual(u, fg, self.hs[0]))))
        return u, history

    def solve(self, f: np.ndarray, *, cycles: int = 20,
              rtol: float = 1e-9) -> Tuple[np.ndarray, List[float]]:
        """Run V-cycles from a zero guess; returns (u, residual-norm history).

        ``f`` is interior-only; the returned ``u`` is ghosted.
        """
        shape = self.shapes[0]
        if f.shape != shape:
            raise ConfigError(f"rhs shape {f.shape} != level-0 shape {shape}")
        fg = alloc_field(shape)
        interior(fg)[...] = f
        u = alloc_field(shape)
        history = [np.sqrt(norm2(residual(u, fg, self.hs[0])))]
        for _ in range(cycles):
            self.vcycle(u, fg)
            history.append(np.sqrt(norm2(residual(u, fg, self.hs[0]))))
            if history[-1] <= rtol * max(history[0], 1e-300):
                break
        return u, history
