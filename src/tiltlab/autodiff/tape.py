"""Tape-based reverse-mode differentiation over dense float64 arrays.

The op vocabulary is deliberately fixed and small: exactly the primitives
the training algorithms need (affine layers, pointwise nonlinearities,
Gaussian log densities, the clipped-surrogate pieces, and the closed-form
mixture noise map). Every node records its parents by index, so a tape is
an explicit topologically-ordered compute graph that can be audited.

Values are never mutated after a node is created; re-running a graph with
identical inputs is bitwise reproducible.
"""

from __future__ import annotations

import numpy as np

from .. import gaussmix
from ..errors import ContractError, NumericError, ShapeError

LOG_2PI = gaussmix.LOG_2PI


class Node:
    """One recorded primitive op (or leaf) in a :class:`Tape`."""

    __slots__ = ("tape", "idx", "op", "parents", "value", "ctx")

    def __init__(self, tape, idx, op, parents, value, ctx=None):
        self.tape = tape
        self.idx = idx
        self.op = op
        self.parents = parents
        self.value = value
        self.ctx = ctx

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.idx}, {self.op}, shape={self.value.shape})"


def _array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tape:
    """Ordered compute graph; parents always precede their children."""

    def __init__(self):
        self.nodes: list[Node] = []

    # -- construction ---------------------------------------------------

    def _push(self, op, parents, value, ctx=None) -> Node:
        value = _array(value)
        if not np.all(np.isfinite(value)):
            raise NumericError(f"op '{op}' produced non-finite values")
        node = Node(self, len(self.nodes), op, tuple(p.idx for p in parents), value, ctx)
        self.nodes.append(node)
        return node

    def _check(self, *nodes):
        for n in nodes:
            if n.tape is not self:
                raise ContractError("node belongs to a different tape")

    def constant(self, value) -> Node:
        return self._push("const", (), value)

    def param(self, value) -> Node:
        return self._push("param", (), value)

    # -- arithmetic -----------------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        self._check(a, b)
        if a.value.shape != b.value.shape:
            raise ShapeError(f"add: {a.value.shape} vs {b.value.shape}")
        return self._push("add", (a, b), a.value + b.value)

    def sub(self, a: Node, b: Node) -> Node:
        self._check(a, b)
        if a.value.shape != b.value.shape:
            raise ShapeError(f"sub: {a.value.shape} vs {b.value.shape}")
        return self._push("sub", (a, b), a.value - b.value)

    def mul(self, a: Node, b: Node) -> Node:
        self._check(a, b)
        if a.value.shape != b.value.shape:
            raise ShapeError(f"mul: {a.value.shape} vs {b.value.shape}")
        return self._push("mul", (a, b), a.value * b.value)

    def scale(self, a: Node, c: float) -> Node:
        self._check(a)
        return self._push("scale", (a,), a.value * float(c), ctx=float(c))

    def shift(self, a: Node, c: float) -> Node:
        self._check(a)
        return self._push("shift", (a,), a.value + float(c), ctx=float(c))

    def matmul(self, a: Node, b: Node) -> Node:
        self._check(a, b)
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(f"matmul: {a.value.shape} @ {b.value.shape}")
        return self._push("matmul", (a, b), a.value @ b.value)

    def affine(self, x: Node, w: Node, b: Node) -> Node:
        self._check(x, w, b)
        if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[0]:
            raise ShapeError(f"affine: {x.value.shape} @ {w.value.shape}")
        if b.value.shape != (w.value.shape[1],):
            raise ShapeError(f"affine bias: {b.value.shape} vs ({w.value.shape[1]},)")
        return self._push("affine", (x, w, b), x.value @ w.value + b.value)

    def concat_cols(self, a: Node, b: Node) -> Node:
        self._check(a, b)
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[0] != b.value.shape[0]:
            raise ShapeError(f"concat_cols: {a.value.shape} vs {b.value.shape}")
        return self._push("concat_cols", (a, b), np.hstack([a.value, b.value]),
                          ctx=a.value.shape[1])

    # -- pointwise ------------------------------------------------------

    def tanh(self, a: Node) -> Node:
        self._check(a)
        return self._push("tanh", (a,), np.tanh(a.value))

    def relu(self, a: Node) -> Node:
        self._check(a)
        return self._push("relu", (a,), np.maximum(a.value, 0.0))

    def exp(self, a: Node) -> Node:
        self._check(a)
        with np.errstate(over="raise"):
            try:
                val = np.exp(a.value)
            except FloatingPointError as exc:
                raise NumericError("exp overflow") from exc
        return self._push("exp", (a,), val)

    def log(self, a: Node) -> Node:
        self._check(a)
        if np.any(a.value <= 0.0):
            raise NumericError("log of a non-positive value")
        return self._push("log", (a,), np.log(a.value))

    def square(self, a: Node) -> Node:
        self._check(a)
        return self._push("square", (a,), a.value * a.value)

    def minimum(self, a: Node, b: Node) -> Node:
        self._check(a, b)
        if a.value.shape != b.value.shape:
            raise ShapeError(f"minimum: {a.value.shape} vs {b.value.shape}")
        return self._push("minimum", (a, b), np.minimum(a.value, b.value))

    def clip(self, a: Node, lo: float, hi: float) -> Node:
        self._check(a)
        return self._push("clip", (a,), np.clip(a.value, lo, hi), ctx=(float(lo), float(hi)))

    # -- reductions and densities ---------------------------------------

    def sumall(self, a: Node) -> Node:
        self._check(a)
        return self._push("sumall", (a,), np.asarray(a.value.sum()))

    def sum_cols(self, a: Node) -> Node:
        """Row-wise sum: (m, d) -> (m,)."""
        self._check(a)
        if a.value.ndim != 2:
            raise ShapeError(f"sum_cols expects a 2-d node, got {a.value.shape}")
        return self._push("sum_cols", (a,), a.value.sum(axis=1))

    def gaussian_logpdf(self, x: Node, mean: Node, var: float) -> Node:
        """Row-wise log N(x_i; mean_i, var * I) for (m, d) inputs, output (m,)."""
        self._check(x, mean)
        var = float(var)
        if var <= 0.0:
            raise ContractError(f"gaussian_logpdf requires var > 0, got {var}")
        if x.value.ndim != 2 or x.value.shape != mean.value.shape:
            raise ShapeError(f"gaussian_logpdf: {x.value.shape} vs {mean.value.shape}")
        d = x.value.shape[1]
        diff = x.value - mean.value
        val = -0.5 * d * (LOG_2PI + np.log(var)) - 0.5 * (diff * diff).sum(axis=1) / var
        return self._push("gauss_logpdf", (x, mean), val, ctx=var)

    def mixture_eps(self, x: Node, log_weights, means, variances, sigma_pert: float) -> Node:
        """Closed-form conditional expected noise for a Gaussian-mixture marginal.

        Value is -sigma_pert * score(x) of the mixture with the given
        (already noising-adjusted) component parameters; its x-Jacobian is
        the mixture Hessian, used for the backward pass.
        """
        self._check(x)
        s = gaussmix.score(x.value, log_weights, means, variances)
        ctx = (np.asarray(log_weights, float), np.asarray(means, float),
               np.asarray(variances, float), float(sigma_pert))
        return self._push("mixture_eps", (x,), -float(sigma_pert) * s, ctx=ctx)


# -- reverse sweep -------------------------------------------------------


def _accumulate(store, idx, grad):
    if store[idx] is None:
        store[idx] = grad.copy() if grad.base is not None else grad
    else:
        store[idx] = store[idx] + grad


def gradient(output: Node, wrt: list[Node]) -> list[np.ndarray]:
    """Reverse-accumulate d(output)/d(node) for each requested node.

    ``output`` must be scalar. Nodes not connected to the output get zero
    gradients of their own shape.
    """
    if output.value.size != 1:
        raise ContractError(f"gradient requires a scalar output, got shape {output.value.shape}")
    tape = output.tape
    for node in wrt:
        if node.tape is not tape:
            raise ContractError("wrt node is not on the output's tape")

    nodes = tape.nodes
    grads: list = [None] * len(nodes)
    grads[output.idx] = np.ones_like(output.value)

    # Only ancestors of the output ever receive a gradient; the rest are skipped.
    for i in range(output.idx, -1, -1):
        if grads[i] is None:
            continue
        node = nodes[i]
        g = grads[i]
        op = node.op
        if op in ("const", "param"):
            continue
        pa = node.parents
        if op == "add":
            _accumulate(grads, pa[0], g)
            _accumulate(grads, pa[1], g)
        elif op == "sub":
            _accumulate(grads, pa[0], g)
            _accumulate(grads, pa[1], -g)
        elif op == "mul":
            _accumulate(grads, pa[0], g * nodes[pa[1]].value)
            _accumulate(grads, pa[1], g * nodes[pa[0]].value)
        elif op == "scale":
            _accumulate(grads, pa[0], g * node.ctx)
        elif op == "shift":
            _accumulate(grads, pa[0], g)
        elif op == "matmul":
            a, b = nodes[pa[0]].value, nodes[pa[1]].value
            _accumulate(grads, pa[0], g @ b.T)
            _accumulate(grads, pa[1], a.T @ g)
        elif op == "affine":
            x, w = nodes[pa[0]].value, nodes[pa[1]].value
            _accumulate(grads, pa[0], g @ w.T)
            _accumulate(grads, pa[1], x.T @ g)
            _accumulate(grads, pa[2], g.sum(axis=0))
        elif op == "concat_cols":
            k = node.ctx
            _accumulate(grads, pa[0], g[:, :k])
            _accumulate(grads, pa[1], g[:, k:])
        elif op == "tanh":
            _accumulate(grads, pa[0], g * (1.0 - node.value * node.value))
        elif op == "relu":
            _accumulate(grads, pa[0], g * (nodes[pa[0]].value > 0.0))
        elif op == "exp":
            _accumulate(grads, pa[0], g * node.value)
        elif op == "log":
            _accumulate(grads, pa[0], g / nodes[pa[0]].value)
        elif op == "square":
            _accumulate(grads, pa[0], 2.0 * g * nodes[pa[0]].value)
        elif op == "minimum":
            a, b = nodes[pa[0]].value, nodes[pa[1]].value
            mask = a <= b
            _accumulate(grads, pa[0], g * mask)
            _accumulate(grads, pa[1], g * (~mask))
        elif op == "clip":
            lo, hi = node.ctx
            x = nodes[pa[0]].value
            _accumulate(grads, pa[0], g * ((x >= lo) & (x <= hi)))
        elif op == "sumall":
            _accumulate(grads, pa[0], np.broadcast_to(g, nodes[pa[0]].value.shape))
        elif op == "sum_cols":
            _accumulate(grads, pa[0], np.broadcast_to(g[:, None], nodes[pa[0]].value.shape))
        elif op == "gauss_logpdf":
            var = node.ctx
            diff = nodes[pa[0]].value - nodes[pa[1]].value
            gm = (g[:, None] / var) * diff
            _accumulate(grads, pa[0], -gm)
            _accumulate(grads, pa[1], gm)
        elif op == "mixture_eps":
            logw, means, variances, sig = node.ctx
            _, hess = gaussmix.score_and_hessian(nodes[pa[0]].value, logw, means, variances)
            _accumulate(grads, pa[0], -sig * np.einsum("mij,mj->mi", hess, g))
        else:  # pragma: no cover - construction forbids unknown ops
            raise ContractError(f"unknown op '{op}' in backward sweep")

    out = []
    for node in wrt:
        g = grads[node.idx]
        out.append(np.zeros_like(node.value) if g is None else np.asarray(g, dtype=np.float64))
    return out
