"""Plain-numpy optimizers for the parameter dataclass."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import PARAM_NAMES, ModelParams, zero_grads

_BLOCK = 2048   # rows per in-place Adam update


class Adam:
    def __init__(self, params: ModelParams, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = zero_grads(params)
        self.v = zero_grads(params)

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in PARAM_NAMES:
            param = getattr(params, name)
            # in place, each product with the operands of the textbook update,
            # _BLOCK rows at a time so the scratch arrays stay in cache
            for lo in range(0, len(param), _BLOCK):
                rows = slice(lo, lo + _BLOCK)
                g, m, v = grads[name][rows], self.m[name][rows], self.v[name][rows]
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                gg = (1.0 - self.beta2) * g
                v += np.multiply(gg, g, out=gg)
                den = np.add(np.sqrt(np.divide(v, bc2, out=gg), out=gg), self.eps, out=gg)
                step = m / bc1
                step *= self.lr
                param[rows] -= np.divide(step, den, out=step)


class SGD:
    def __init__(self, params: ModelParams, lr: float):
        self.lr = lr

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        for name in PARAM_NAMES:
            getattr(params, name)[...] -= self.lr * grads[name]


def make_optimizer(kind: str, params: ModelParams, lr: float):
    if kind == "adam":
        return Adam(params, lr)
    if kind == "sgd":
        return SGD(params, lr)
    raise ConfigError(f"unknown optimizer '{kind}'")
