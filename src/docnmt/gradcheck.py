"""Central-difference gradient checking against the autodiff backward pass."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractError

# Relative error uses max(|ad|, |fd|, REL_FLOOR) as denominator so that
# finite-difference noise on near-zero gradients does not dominate.
REL_FLOOR = 1e-4


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    worst_index: int
    worst_ad: float
    worst_fd: float
    n_checked: int
    tol: float
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.max_rel_err <= self.tol)  # numpy errors give np.bool_

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (f"gradcheck {state}: max rel err {self.max_rel_err:.3e} "
                f"(tol {self.tol:.1e}) at {self.worst_param}[{self.worst_index}] "
                f"ad={self.worst_ad:.6e} fd={self.worst_fd:.6e} "
                f"over {self.n_checked} entries")


def grad_check(f, params) -> GradCheckReport:
    """Compare autodiff gradients of scalar ``f()`` with central differences
    of step 1e-5; it passes at a largest relative error of 1e-4.

    ``params`` is a list of (name, Tensor) pairs (or a dict); every tensor
    must have requires_grad set.  ``f`` must rebuild its graph on each call
    and be deterministic — two baseline evaluations that differ bitwise
    raise ContractError.
    """
    h, tol = 1e-5, 1e-4
    if isinstance(params, dict):
        params = list(params.items())
    for name, t in params:
        if not t.requires_grad:
            raise ContractError(f"param '{name}' does not require grad")

    base1 = f()
    v1 = base1.item()
    ad.clear_tape()
    base2 = f()
    v2 = base2.item()
    ad.clear_tape()
    if v1 != v2:
        raise ContractError(f"f() is not deterministic: {v1!r} != {v2!r}")

    for _, t in params:
        t.grad = None
    loss = f()
    ad.backward(loss)
    grads = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
             for name, t in params}

    worst = (0.0, "", -1, 0.0, 0.0)
    per_param: dict[str, float] = {}
    n_checked = 0
    with ad.no_grad():
        for name, t in params:
            flat = t.data.reshape(-1)
            gflat = grads[name].reshape(-1)
            pmax = 0.0
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = f().item()
                flat[i] = orig - h
                fm = f().item()
                flat[i] = orig
                fd = (fp - fm) / (2.0 * h)
                g = gflat[i]
                err = abs(g - fd) / max(abs(g), abs(fd), REL_FLOOR)
                n_checked += 1
                if err > pmax:
                    pmax = err
                if err > worst[0]:
                    worst = (err, name, i, g, fd)
            per_param[name] = pmax

    return GradCheckReport(max_rel_err=worst[0], worst_param=worst[1],
                           worst_index=worst[2], worst_ad=worst[3],
                           worst_fd=worst[4], n_checked=n_checked, tol=tol,
                           per_param=per_param)
