"""Reverse-mode differentiation over dense 2-D arrays.

Small and closed by design: matrix product, broadcast add/multiply, the
dense relu layer (``dense_relu``: column join, product, bias and relu as one
node), row concatenation, layer normalization, row-wise softmax, gather,
scatter-add (gated message passing), blockwise biased attention and dot
products, per-row cross-entropy and the total sum, which is everything the
encoders, decoder and training loss compose from.  Arithmetic is 32-bit by
default; gradient checking builds the same graphs over 64-bit parameters.

Aggregation by index (``scatter_add`` and the backward pass of ``gather``)
is always a segment sum over a :class:`Segments` plan, built once per index
array and reused by every layer that sums over it, which returns the sums in
their rows (:meth:`Segments.sums`).  Every run is added strictly left to
right, so a zero cell adds nothing and leaving entries out of a sum is the
same as zeroing them.  ``scatter_add`` passes messages along a
:class:`MessagePlan`: blocks of rows stacked along the rows share one plan,
each block summed on its own, and zeroed (edge, block) cells leave an edge
out of one block only.  A message shared by many edges is computed once and
fanned out inside the sum, which takes its entries slab by slab, so the
per-edge rows are never held in full past :data:`SLAB_BYTES`; the messages
themselves are a temporary of the op, never kept on the tape.

Only what a gradient needs is recorded.  A :class:`Value` made by
``Value(data)`` (a parameter, or an input under a gradient check) needs a
gradient; :meth:`Value.constant` makes one that does not, and plain arrays
passed to ``add``, ``mul``, ``matmul`` and as the weight or bias of
``dense_relu`` are constants too.  An op whose operands are all constants
returns a constant: it keeps no parents and no backward step, so its inputs
are freed as soon as the caller drops them, and a pass over constants only
(scoring with a trained model) records no tape at all.  An op with a
tracked operand records itself, and its backward step skips the constant
operands, so no constant ever gets a gradient buffer.

Gradient buffers are owned, never shared.  In the backward sweep a node's
first gradient contribution becomes its buffer as it is, unless it is a view
of another node's gradient (the gradient passed through, or a slice of
it), which is copied; later contributions add into it.  A
parameter of a :class:`ParamStore` in training already has its buffer: its
view of the store's one flat gradient buffer, so contributions add into
that, and the optimizer, clipping and zeroing work on the whole flat buffer
at once.

A tape is swept once.  :func:`backward` releases each interior node as soon
as its own backward step has run (its gradient buffer, its backward step and
its parents), so the sweep's memory falls as it goes and a node's forward
data dies with the last step that kept it.  Leaves keep their gradients: a
new tape over the same leaves, swept without zeroing, adds into them.  A
sweep that would reach a swept node, and a read of a swept node's gradient,
is a :class:`ContractError`.
"""

from __future__ import annotations

import ctypes
import struct
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ContractError, DataError, NumericalError, ShapeError

Array = np.ndarray


class Value:
    """A 2-D array node, with a gradient accumulator when it needs a gradient.

    ``Value(data)`` needs a gradient; :meth:`constant` makes a leaf that
    does not (``requires_grad`` is False).  A node has no gradient buffer
    until the backward sweep reaches it: its first contribution becomes the
    buffer (copied only when it is a view of another node's gradient), so
    no buffer is zero-filled just to be added to.  Reading :attr:`grad`
    before then gives a zeroed buffer.  Once its own backward step has run,
    a node made by an op is swept: its buffer, backward step and parents are
    released, and reading its :attr:`grad` is a :class:`ContractError`.  A
    laid-out :class:`ParamStore` parameter's ``data`` is a view of the
    store's flat buffer, and so is its gradient once the store's flat
    gradient buffer exists.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = (), backward: Callable | None = None):
        self.data = _matrix(data)
        self.requires_grad = True
        self._grad: Array | None = None
        self._parents = parents
        self._backward = backward

    @classmethod
    def constant(cls, data) -> "Value":
        """A leaf that needs no gradient; ``data`` is kept, not copied."""
        out = cls.__new__(cls)
        out.data = _matrix(data)
        out.requires_grad = False
        out._grad = None
        out._parents = ()
        out._backward = None
        return out

    @property
    def grad(self) -> Array:
        if self._grad is None:
            if self._backward is _swept:
                raise ContractError("the gradient of a swept node was released")
            self._grad = np.zeros_like(self.data)
        return self._grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __repr__(self):
        return f"Value(shape={self.shape}, dtype={self.data.dtype})"


def _matrix(data) -> Array:
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise ShapeError(f"Value requires a 2-D array, got shape {arr.shape}")
    return arr


def _record(data: Array, operands: tuple, backward: Callable) -> Value:
    """An op's result: on the tape with ``backward`` when any of its
    ``operands`` (None for a plain array) needs a gradient, else a constant."""
    parents = tuple([v for v in operands if v is not None and v.requires_grad])
    if parents:
        return Value(data, parents, backward)
    return Value.constant(data)


def _accumulate(v: Value, grad: Array, view: bool = False) -> None:
    """Add ``grad`` into ``v``'s gradient.  A node without a buffer yet
    takes ``grad`` as its buffer, or a C-ordered copy of it when it is a
    ``view`` of another node's gradient, of another dtype, or not C-ordered
    (so every buffer sums exactly as a zeroed one added to would)."""
    if v._grad is not None:
        v._grad += grad
    elif view or grad.dtype != v.data.dtype or not grad.flags.c_contiguous:
        v._grad = np.array(grad, dtype=v.data.dtype, order="C")
    else:
        v._grad = grad


def _unbroadcast(grad: Array, shape: tuple[int, int]) -> Array:
    """Reduce a gradient back to the shape of a broadcast operand."""
    out = grad
    if shape[0] == 1 and grad.shape[0] > 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] > 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcastable(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


def _operand(x) -> tuple[Array, "Value | None"]:
    """Split an operand into raw data and the tracked node (None = constant)."""
    if isinstance(x, Value):
        return x.data, (x if x.requires_grad else None)
    return np.asarray(x), None


def add(a, b) -> Value:
    """Elementwise sum; operands may be constants (constant Values or plain arrays)."""
    da, va = _operand(a)
    db, vb = _operand(b)
    if not _broadcastable(da.shape, db.shape):
        raise ShapeError(f"cannot add shapes {da.shape} and {db.shape}")

    def bwd(g: Array):
        for v, shape in ((va, da.shape), (vb, db.shape)):
            if v is not None:
                part = _unbroadcast(g, shape)
                _accumulate(v, part, view=part is g)

    return _record(da + db, (va, vb), bwd)


def mul(a, b) -> Value:
    """Elementwise product with row/column broadcasting; constants allowed."""
    da, va = _operand(a)
    db, vb = _operand(b)
    if not _broadcastable(da.shape, db.shape):
        raise ShapeError(f"cannot multiply shapes {da.shape} and {db.shape}")

    def bwd(g: Array):
        if va is not None:
            _accumulate(va, _unbroadcast(g * db, da.shape))
        if vb is not None:
            _accumulate(vb, _unbroadcast(g * da, db.shape))

    return _record(da * db, (va, vb), bwd)


def _product(a: Array, b: Array) -> Array:
    """``a @ b``, each row summed as in a product of several rows: numpy
    sends a one-row ``a`` to gemv, whose order differs from gemm's, so a
    one-row ``a`` is taken as row 0 of a two-row product."""
    if a.shape[0] != 1:
        return a @ b
    return (np.concatenate([a, a]) @ b)[:1]


def matmul(a, b) -> Value:
    da, va = _operand(a)
    db, vb = _operand(b)
    if da.shape[1] != db.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {da.shape} @ {db.shape}")

    def bwd(g: Array):
        if va is not None:
            _accumulate(va, g @ db.T)
        if vb is not None:
            _accumulate(vb, da.T @ g)

    return _record(_product(da, db), (va, vb), bwd)


# Set by :func:`finite_difference` while it probes: every relu appends its
# mask, so a probe can tell whether a perturbation crossed a kink.
_relu_masks: ContextVar[list[Array] | None] = ContextVar("relu_masks", default=None)


def dense_relu(parts: Sequence[Value], w, b) -> Value:
    """``relu(concat(parts, axis=1) @ w + b)``, one node on the tape.

    The relu keeps NaN, so that a diverged input shows downstream, and adds
    +0 to turn -0 into +0: every other entry equals ``np.where(y > 0, y, 0)``
    bit for bit, at a tenth of its cost.  ``w`` and ``b`` may be constants.
    The node keeps the joined input and the output; each part's gradient
    is its column slice of one product, copied unless it is the whole of it.
    """
    parts = list(parts)
    if not parts:
        raise ContractError("dense_relu of zero parts")
    dw, vw = _operand(w)
    db, vb = _operand(b)
    rows = parts[0].shape[0]
    widths = [p.shape[1] for p in parts]
    if any(p.shape[0] != rows for p in parts) or sum(widths) != dw.shape[0] \
            or db.shape != (1, dw.shape[1]):
        raise ShapeError(f"cannot join {[p.shape for p in parts]} through weight {dw.shape} "
                         f"and bias {db.shape}")
    cat = parts[0].data if len(parts) == 1 else np.concatenate([p.data for p in parts], axis=1)
    y = _product(cat, dw)
    y += db
    np.maximum(y, 0, out=y)
    y += 0
    masks = _relu_masks.get()
    if masks is not None:
        masks.append(y > 0)

    def bwd(g: Array):
        # g is this node's own buffer, released once this step has run.
        gm = np.multiply(g, y > 0, out=g)
        if vb is not None:
            _accumulate(vb, gm.sum(axis=0, keepdims=True))
        if vw is not None:
            _accumulate(vw, cat.T @ gm)
        if any(p.requires_grad for p in parts):
            dcat = gm @ dw.T
            offset = 0
            for p, width in zip(parts, widths):
                if p.requires_grad:
                    _accumulate(p, dcat[:, offset:offset + width])
                offset += width

    return _record(y, (*parts, vw, vb), bwd)


def concat(parts: Sequence[Value]) -> Value:
    """Stack along the rows."""
    parts = list(parts)
    if not parts:
        raise ContractError("concat of zero parts")
    sizes = [p.shape[0] for p in parts]

    def bwd(g: Array):
        offset = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                _accumulate(p, g[offset:offset + size], view=True)
            offset += size

    return _record(np.concatenate([p.data for p in parts], axis=0), tuple(parts), bwd)


def rowwise_softmax(a: Value) -> Value:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bwd(g: Array):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accumulate(a, (g - dot) * y)

    return _record(y, (a,), bwd)


def layer_norm(x: Value, gain: Value, bias: Value, eps: float = 1e-5) -> Value:
    """Per-row normalization followed by an affine map; gain/bias are (1, d)."""
    if gain.shape != (1, x.shape[1]) or bias.shape != (1, x.shape[1]):
        raise ShapeError(f"gain/bias must be (1, {x.shape[1]}) for input {x.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = (x.data - mu) * inv

    def bwd(g: Array):
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=1, keepdims=True)
            m2 = (gx * xhat).mean(axis=1, keepdims=True)
            _accumulate(x, (gx - m1 - xhat * m2) * inv)
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).sum(axis=0, keepdims=True))
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0, keepdims=True))

    return _record(xhat * gain.data + bias.data, (x, gain, bias), bwd)


class Segments:
    """A plan for summing the values whose entries share an index, each run
    strictly left to right in entry order.

    ``index`` is kept as given, not copied, when it is already a 1-D int64
    array.  ``order`` is a stable permutation that brings equal entries
    together (None when ``index`` is already sorted), and ``rows`` the index
    value of each run, ascending and distinct.  :meth:`sums` returns each
    run's sum in its row; :meth:`block_sums`, which it places, returns them
    in the order of ``sum_rows``, longest first.

    The sums work from a layout built once, on the first sum.  Slot s of a
    gathered array holds entry ``entries[s]``, level by level: first the
    first entry of every run, longest run first, then the second entry of
    every run longer than one, and so on.  Level 0 is the accumulator, and
    each later level adds onto the prefix of it that is still running.
    Consecutive levels with the same number of runs form one contiguous
    block, which is summed in one call (:func:`_slabs`).
    """

    __slots__ = ("index", "order", "rows", "_starts", "_memo")

    def __init__(self, index: Sequence[int] | Array):
        idx = np.asarray(index, dtype=np.int64)
        if idx.ndim != 1:
            raise ShapeError(f"index must be 1-D, got shape {idx.shape}")
        self.index = idx
        self.order = np.argsort(idx, kind="stable") if _unsorted(idx) else None
        ordered = idx if self.order is None else idx[self.order]
        bounds = np.empty(idx.size, dtype=bool)
        bounds[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=bounds[1:])
        self._starts = np.flatnonzero(bounds)
        self.rows = ordered[self._starts]
        self._memo: dict[tuple, tuple] = {}

    def _memoized(self, key: tuple, make: Callable[[], object], tag=None):
        """``make()``, kept under ``key`` while ``tag`` (compared by identity)
        stays the same."""
        hit = self._memo.get(key)
        if hit is None or hit[0] is not tag:
            hit = self._memo[key] = tag, make()
        return hit[1]

    def _layout(self) -> tuple[Array, Array, list[int], list[int]]:
        """(``sum_rows``, the entry of each slot, the runs of each level and
        its first slot), built on the first sum."""
        return self._memoized(("layout",), self._lay_out)

    def _lay_out(self) -> tuple[Array, Array, list[int], list[int]]:
        size, starts = self.index.size, self._starts
        lengths = np.diff(starts, append=size)
        by_length = np.argsort(-lengths, kind="stable")
        # Entry j of the k-th longest run sits at slot level_start[j] + k.
        n = lengths[by_length]
        alive = np.searchsorted(-n, -np.arange(n[0] if n.size else 0), side="left")
        level_start = np.cumsum(alive) - alive
        k = np.repeat(np.arange(n.size), n)
        j = np.arange(size) - np.repeat(np.cumsum(n) - n, n)
        position = np.empty(size, dtype=np.int64)  # of each slot, in sorted order
        position[level_start[j] + k] = starts[by_length][k] + j
        entries = position if self.order is None else self.order[position]
        return self.rows[by_length], entries, alive.tolist(), level_start.tolist()

    @property
    def sum_rows(self) -> Array:
        """The index value of each run, in the order of :meth:`block_sums`."""
        return self._layout()[0]

    def _block_index(self, blocks: int, stride: int) -> Array:
        """The index once per block, block after block, block q's entries
        offset by q·``stride``."""
        if blocks == 1:
            return self.index
        return self._memoized(("index", blocks, stride), lambda: (
            self.index + stride * np.arange(blocks)[:, None]).ravel())

    def block_sums(self, values: Array, blocks: int = 1, read: Array | None = None,
                   zeroed: tuple[Array, Array] | None = None) -> Array:
        """The (runs, blocks, d) sums of ``values``, one run per entry of
        ``sum_rows``.

        ``values`` stacks ``blocks`` equal blocks of rows, and entry e of
        block q reads row ``read[e]`` of block q (row e when ``read`` is
        None).  The ``zeroed`` cells, a pair of arrays of entries and their
        blocks, add -0.0 instead: the exact identity of float addition, so a
        run's sum equals that of a plan without those entries, bit for bit,
        except that a run left with no entry sums to -0.0.  Each cell is
        summed strictly left to right in entry order, whatever ``blocks``.

        The slots are taken slab by slab (:func:`_slabs`): the first slab,
        level 0 and whatever follows it within :data:`SLAB_BYTES`, into the
        front of one buffer, where level 0 is the accumulator, and every
        later slab into the region of at most :data:`SLAB_BYTES` past it.
        So a sum holds its output and at most that many bytes more.
        """
        sum_rows, entries, alive, level_start = self._layout()
        stride, d = values.shape[0] // blocks, values.shape[1]
        slots = self._memoized(("slots", blocks, stride), lambda: (
            entries if read is None else read[entries])[:, None]
            + stride * np.arange(blocks), read)
        cap = max(1, SLAB_BYTES // (blocks * d * values.itemsize))
        slabs = self._memoized(("slabs", cap), lambda: _slabs(alive, level_start, cap))
        if zeroed is not None:
            slot_of = self._memoized(("slot of",), lambda: np.argsort(entries))
            cells = self._memoized(("zeroed", blocks, cap), lambda: _slab_cells(
                slot_of[zeroed[0]] * blocks + zeroed[1], slabs, blocks), zeroed)
        runs = sum_rows.size
        x = np.empty((min(entries.size, runs + cap), blocks, d), dtype=values.dtype)
        for i, (first, end, adds) in enumerate(slabs):
            region = x[:end] if not first else x[runs:runs + end - first]
            np.take(values, slots[first:end], axis=0, out=region, mode="clip")
            if zeroed is not None:
                region.reshape(-1, d)[cells[i]] = -0.0
            for lo, hi, count, run in adds:
                acc = x[run:run + count]
                if hi - lo == count:
                    acc += x[lo:hi]
                    continue
                # Add the accumulator onto the first level, then sum the
                # levels over the leading axis, which adds them in order onto
                # the initial -0.0, unless each row is one number, which
                # accumulating always adds in order.
                x[lo:lo + count] += acc
                block = x[lo:hi].reshape(-1, acc.size)
                if block.shape[1] > 1:
                    np.add.reduce(block, axis=0, out=acc.reshape(-1), initial=-0.0)
                else:
                    acc.reshape(-1)[:] = np.add.accumulate(block)[-1]
        return x[:runs]

    def sums(self, values: Array, num_rows: int, blocks: int = 1, stride: int | None = None,
             read: Array | None = None, zeroed: tuple[Array, Array] | None = None) -> Array:
        """The (``num_rows``, d) sums of :meth:`block_sums`, each in its row.

        Block q's run of index value r goes in row q·``stride`` + r, the
        stride defaulting to ``num_rows`` over ``blocks``; with stride 0 the
        blocks' sums of a run are added, in block order, into row r.  Rows
        that no run reaches are zero.  When the runs reach every row, the
        sums are placed by one take through a row order kept with the plan.
        """
        if stride is None:
            stride = num_rows // blocks
        cells = self.block_sums(values, blocks, read, zeroed)
        if blocks > 1 and not stride:  # every block sums into the same rows
            cells = cells.sum(axis=1, keepdims=True)
        runs, width, d = cells.shape
        if runs * width == num_rows:  # the n runs are of 0 to n - 1 in each block
            order = self._memoized(("permutation", width), lambda: (
                np.argsort(self.sum_rows) * width + np.arange(width)[:, None]).ravel())
            return np.take(cells.reshape(-1, d), order, axis=0)
        out = np.zeros((num_rows, d), dtype=values.dtype)
        out[self._memoized(("rows", width, stride), lambda: (
            self.sum_rows[:, None] + stride * np.arange(width)))] = cells
        return out


# The most bytes a :meth:`Segments.block_sums` takes at once past its output.
SLAB_BYTES = 1 << 20


def _slabs(alive: list[int], level_start: list[int], cap: int) -> list[tuple[int, int, list]]:
    """The slabs of a level layout whose level j holds ``alive[j]`` slots
    from ``level_start[j]`` on, as (first slot, end slot, adds).

    The first slab starts at slot 0, with level 0, and its slot s goes to
    buffer row s; it ends ``cap`` slots past level 0.  Each later slab holds
    the next ``cap`` slots (fewer at the end), and its slot s goes to row
    s - first + ``alive[0]``, just past level 0.  An add (lo, hi, count, run)
    adds buffer rows lo to hi, levels (or parts of one) of ``count`` slots
    each, in order onto rows run to run + count of level 0.  A slab cuts a
    level by its runs; the parts of it still add in order, slab after slab.
    """
    if not alive:
        return []
    groups = []  # [count, first slot, end slot] of each run of levels of one count
    for count, start in zip(alive[1:], level_start[1:]):
        if groups and groups[-1][0] == count:
            groups[-1][2] += count
        else:
            groups.append([count, start, start + count])
    runs, size = alive[0], level_start[-1] + alive[-1]
    cuts = [0, *range(runs + cap, size, cap), size]
    slabs = []
    for first, end in zip(cuts, cuts[1:]):
        shift = runs - first if first else 0  # slot s goes to row s + shift
        adds = []
        for count, start, stop in groups:
            lo, hi = max(start, first), min(stop, end)
            if lo >= hi:
                continue
            run = (lo - start) % count
            if run:  # the rest of a level the slab before cut
                cut = min(lo + count - run, hi)
                adds.append((lo + shift, cut + shift, cut - lo, run))
                lo = cut
            whole = (hi - lo) // count * count
            if whole:
                adds.append((lo + shift, lo + whole + shift, count, 0))
                lo += whole
            if lo < hi:  # the front of a level this slab's end cuts
                adds.append((lo + shift, hi + shift, hi - lo, 0))
        slabs.append((first, end, adds))
    return slabs


def _slab_cells(cells: Array, slabs: list[tuple[int, int, list]], blocks: int) -> list[Array]:
    """Flat (slot, block) ``cells`` split by slab, each as rows of its slab's
    region of the buffer viewed as one row per cell."""
    return [cells[(cells >= first * blocks) & (cells < end * blocks)] - first * blocks
            for first, end, _ in slabs]


def _unsorted(idx: Array) -> bool:
    return idx.size > 1 and bool((idx[1:] < idx[:-1]).any())


@dataclass(frozen=True)
class MessagePlan:
    """How one message pass (:func:`scatter_add`) reads a graph's edges, for
    a batch of ``blocks`` queries stacked along the rows.

    A message depends only on its edge's source node and gate row, so each
    distinct (source, gate row) pair is one message: ``src`` and ``gate``
    plan the pairs' source nodes and gate rows.  The edges come in stable
    destination order: ``fan`` plans the pair each edge reads, and ``dst``
    the edges' destinations, already ascending.

    Every block shares these plans of the whole graph.  Block q owns node
    rows q·N to (q+1)·N - 1 of a graph of N nodes, and reads the gate rows
    of a shared gate table, or of its own block of one when the gates are
    per query.  ``zeroed`` pairs the edges (positions in destination order)
    left out of a block with that block, by block then edge; their (edge,
    block) cells are zeroed in the sum at the destinations and in the one
    back to the pairs.
    """

    src: Segments
    gate: Segments
    fan: Segments
    dst: Segments
    blocks: int = 1
    zeroed: tuple[Array, Array] | None = None


def _check_rows(plan: Segments, rows: int, blocks: int, stride: int, what: str) -> None:
    """Block q reads rows q·``stride`` + ``plan.index`` of ``rows`` rows; with
    several blocks and a nonzero stride no block may read past its own."""
    hit = plan.rows  # distinct and ascending: fewer to check
    if not hit.size:
        return
    if blocks > 1 and stride and hit[-1] >= stride:
        raise ShapeError(f"{what} {int(hit[-1])} is past the {stride} rows of a block")
    if hit[0] < 0 or (blocks - 1) * stride + hit[-1] >= rows:
        raise IndexError(f"{what} out of range for {rows} rows")


def gather(x: Value, rows: Sequence[int] | Array | Segments) -> Value:
    """Select rows of ``x`` (with repetition) by index.

    ``rows`` may be a :class:`Segments` plan of the index; a plain index is
    planned here.  The backward pass sums over the plan.
    """
    plan = rows if isinstance(rows, Segments) else Segments(rows)
    _check_rows(plan, x.shape[0], 1, 0, "row index")
    return _record(np.take(x.data, plan.index, axis=0), (x,),
                   lambda g: _accumulate(x, plan.sums(g, x.shape[0])))


def scatter_add(x: Value, gates: Value, plan: MessagePlan, stride: int = 0) -> Value:
    """One message pass: each node's row of the result sums the messages of
    the edges into it, in edge order; rows no edge reaches are zero.

    ``x`` and the result stack ``plan.blocks`` equal blocks of N node rows.
    In block q, pair p's message is row q·N + ``plan.src.index[p]`` of
    ``x`` times row q·``stride`` + ``plan.gate.index[p]`` of ``gates``;
    with stride 0 every block reads the same gate rows, taken once and
    broadcast over the blocks.  Each message is formed once, as a temporary,
    and fanned out to its edges inside the sum at the destinations
    (:meth:`Segments.sums`), which leaves the ``plan.zeroed`` cells out.
    The backward pass sums the gradient back to the pairs over ``plan.fan``
    with the same cells left out, and takes the rows of both operands again,
    so the tape holds one node per pass and no per-pair array.
    """
    blocks, (rows, d) = plan.blocks, x.shape
    nodes, pairs = rows // blocks, plan.src.index.size
    if rows != blocks * nodes or gates.shape[1] != d or plan.gate.index.size != pairs \
            or plan.fan.index.size != plan.dst.index.size:
        raise ShapeError(f"a plan of {blocks} block(s), {pairs} source(s), "
                         f"{plan.gate.index.size} gate(s), {plan.fan.index.size} pair read(s) "
                         f"and {plan.dst.index.size} destination(s) cannot pass messages "
                         f"over {x.shape} gated by {gates.shape}")
    _check_rows(plan.src, rows, blocks, nodes, "source index")
    _check_rows(plan.gate, gates.shape[0], blocks, stride, "gate row index")
    _check_rows(plan.fan, blocks * pairs, blocks, pairs, "pair index")
    _check_rows(plan.dst, rows, blocks, nodes, "destination index")
    shared = not stride  # every block reads the same gate rows

    # The backward pass takes both again from the operands, which the tape
    # keeps anyway, rather than keep a copy of each gathered array.
    def take_rows() -> Array:
        return np.take(x.data, plan.src._block_index(blocks, nodes), axis=0
                       ).reshape(blocks, pairs, d)

    def take_gate_rows() -> Array:
        index = plan.gate.index if shared else plan.gate._block_index(blocks, stride)
        return np.take(gates.data, index, axis=0).reshape(1 if shared else blocks, pairs, d)

    messages = take_rows()  # the gate rows die with the multiply, before the sum
    in_place = np.result_type(x.data, gates.data) == messages.dtype
    messages = np.multiply(messages, take_gate_rows(), out=messages if in_place else None)

    def bwd(g: Array):
        per_pair = plan.fan.sums(g, blocks * pairs, blocks, read=plan.dst.index,
                                 zeroed=plan.zeroed).reshape(blocks, pairs, d)
        if x.requires_grad:
            _accumulate(x, plan.src.sums((per_pair * take_gate_rows()).reshape(-1, d), rows,
                                         blocks))
        if gates.requires_grad:  # the last use of per_pair
            _accumulate(gates, plan.gate.sums(
                np.multiply(per_pair, take_rows(), out=per_pair).reshape(-1, d),
                gates.shape[0], blocks, stride))

    return _record(plan.dst.sums(messages.reshape(-1, d), rows, blocks, read=plan.fan.index,
                                 zeroed=plan.zeroed), (x, gates), bwd)


def total_sum(a: Value) -> Value:
    def bwd(g: Array):
        _accumulate(a, np.full(a.shape, g[0, 0], dtype=a.data.dtype))

    return _record(a.data.sum(dtype=a.data.dtype).reshape(1, 1), (a,), bwd)


def attention(q: Value, k: Value, v: Value, key_bias: Value, value_bias: Value,
              types: Array, head_count: int) -> Value:
    """Biased multi-head self-attention within each of B blocks of L rows.

    ``q``, ``k`` and ``v`` stack B blocks of L rows; head h owns columns
    h·dh:(h+1)·dh of them and of the (T, d) tables ``key_bias`` and
    ``value_bias``.  ``types[b, i, j]`` is the bias type of row i of block b
    attending to its row j: a type t < T adds row i of the query dotted with
    key-bias row t to the pair's score, scaled by dh^-1/2 with it, and the
    pair's weight times value-bias row t to row i's sum; type T masks the
    pair, whose weight is then exactly 0.  Every row must keep one pair.
    Each block is one slice of stacked matmuls whose shapes depend on L, d
    and the head count alone, so a block's rows do not depend on the other
    blocks.  Per-type sums add a row's entries in column order.
    """
    (rows, d), heads = q.shape, head_count
    blocks, length = types.shape[:2]
    kinds, dh = key_bias.shape[0], d // max(heads, 1)
    if heads < 1 or d != heads * dh or rows != blocks * length \
            or types.shape != (blocks, length, length) or not k.shape == v.shape == q.shape \
            or not key_bias.shape == value_bias.shape == (kinds, d):
        raise ShapeError(f"{head_count}-head attention over {q.shape}, {k.shape} and {v.shape} "
                         f"with bias tables {key_bias.shape} and {value_bias.shape} cannot "
                         f"read pair types {types.shape}")
    if types.size and (types.min() < 0 or types.max() > kinds):
        raise IndexError(f"pair type out of range for {kinds} bias types")
    if not (types < kinds).any(axis=2).all():
        raise ContractError("a row's pair types mask every pair, so its weights are undefined")
    inv_scale = np.asarray(dh ** -0.5, dtype=q.data.dtype)
    # The cell of a (B, H, L, T + 1) per-type array that each pair reads.
    num_cells = blocks * heads * length * (kinds + 1)
    cells = np.arange(0, num_cells, kinds + 1).reshape(blocks, heads, length, 1) \
        + types[:, None]

    def split(x: Array) -> Array:   # (B·L, d) -> (B, H, L, dh)
        return x.reshape(blocks, length, heads, dh).transpose(0, 2, 1, 3)

    def join(x: Array) -> Array:    # (B, H, L, dh) -> (B·L, d)
        return x.transpose(0, 2, 1, 3).reshape(rows, d)

    def per_head(table: Array) -> Array:   # (T, d) -> (H, T, dh)
        return table.reshape(kinds, heads, dh).transpose(1, 0, 2)

    def table_sum(per_block: Array) -> Array:   # (B, H, T, dh) -> (T, d)
        return per_block.sum(axis=0).transpose(1, 0, 2).reshape(kinds, d)

    def pick(per_type: Array, fill: float) -> Array:   # (B, H, L, T) -> (B, H, L, L)
        padded = np.concatenate([per_type, np.full((*per_type.shape[:3], 1), fill,
                                                   dtype=per_type.dtype)], axis=3)
        return padded.reshape(-1).take(cells)

    def by_type(pairs: Array) -> Array:   # (B, H, L, L) -> (B, H, L, T)
        sums = np.bincount(cells.reshape(-1), pairs.reshape(-1), minlength=num_cells)
        return sums.reshape(blocks, heads, length, kinds + 1)[..., :kinds].astype(pairs.dtype)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    kb, vb = per_head(key_bias.data), per_head(value_bias.data)
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores += pick(qh @ kb.transpose(0, 2, 1), -np.inf)
    scores *= inv_scale
    weights = np.exp(scores - scores.max(axis=3, keepdims=True))
    weights /= weights.sum(axis=3, keepdims=True)
    shares = by_type(weights)

    def bwd(g: Array):
        gh = split(g)
        if value_bias.requires_grad:
            _accumulate(value_bias, table_sum(shares.transpose(0, 1, 3, 2) @ gh))
        if v.requires_grad:
            _accumulate(v, join(weights.transpose(0, 1, 3, 2) @ gh))
        dw = gh @ vh.transpose(0, 1, 3, 2)
        dw += pick(gh @ vb.transpose(0, 2, 1), 0.0)
        ds = dw - (dw * weights).sum(axis=3, keepdims=True)
        ds *= weights
        ds *= inv_scale
        dp = by_type(ds)
        if q.requires_grad:
            _accumulate(q, join(ds @ kh + dp @ kb))
        if k.requires_grad:
            _accumulate(k, join(ds.transpose(0, 1, 3, 2) @ qh))
        if key_bias.requires_grad:
            _accumulate(key_bias, table_sum(dp.transpose(0, 1, 3, 2) @ qh))

    return _record(join(weights @ vh + shares @ vb), (q, k, v, key_bias, value_bias), bwd)


def block_dots(x: Value, rows: Value) -> Value:
    """``out[b, j]``: row j of block b of ``rows`` dotted with row b of ``x``,
    where ``rows`` stacks one block of n rows per row of ``x``.  Each block
    is one slice of a stacked (B, n, d)·(B, d, 1) product, so a block's row
    does not depend on the other blocks."""
    blocks, d = x.shape
    n = rows.shape[0] // max(blocks, 1)
    if rows.shape != (blocks * n, d):
        raise ShapeError(f"{rows.shape} rows do not split into {blocks} block(s) of {d} columns")
    table = rows.data.reshape(blocks, n, d)

    def bwd(g: Array):
        if x.requires_grad:
            _accumulate(x, (g[:, None, :] @ table)[:, 0])
        if rows.requires_grad:
            _accumulate(rows, (g[:, :, None] * x.data[:, None, :]).reshape(-1, d))

    return _record((table @ x.data[:, :, None])[:, :, 0], (x, rows), bwd)


def cross_entropy(logits: Value, targets: Sequence[int] | Array | int) -> Value:
    """Per-row negative log softmax probability of each row's target.

    ``logits`` is (B, n) and ``targets`` holds one class per row; the result
    is the (B, 1) column of losses.
    """
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    rows, n = logits.shape
    if targets.size != rows:
        raise ShapeError(f"{targets.size} target(s) for {rows} logit row(s)")
    if targets.size and (targets.min() < 0 or targets.max() >= n):
        raise IndexError(f"target out of range for {n} classes")
    picked = np.arange(rows), targets
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = lse - shifted[picked][:, None]
    probs = np.exp(shifted - lse)

    def bwd(g: Array):
        delta = probs.copy()
        delta[picked] -= 1
        _accumulate(logits, g * delta)

    return _record(loss, (logits,), bwd)


def _swept(g: Array) -> None:
    """The backward step of a node the sweep has released."""
    raise ContractError("this node's backward step has run and was released")


def backward(root: Value) -> None:
    """Reverse sweep from a scalar root; gradients accumulate into the
    leaves' ``.grad``.

    The sweep releases every interior node once its own step has run: its
    gradient buffer, backward step and parents are dropped.  A swept node
    stays swept, so a sweep that would reach one (the same root again, or a
    new root built on it) is a :class:`ContractError`, raised before any
    gradient changes, and so is reading a swept node's :attr:`Value.grad`.
    """
    if root.shape != (1, 1):
        raise ContractError(f"backward requires a scalar root, got shape {root.shape}")
    if not root.requires_grad:
        raise ContractError("backward from a constant: nothing it depends on needs a gradient")
    order: list[Value] = []
    seen: set[int] = set()
    stack: list[tuple[Value, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _swept:
            raise ContractError("backward over a swept node: a tape is swept once, "
                                "build a new one")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    _accumulate(root, np.ones_like(root.data))
    # Every consumer of a node is swept before it, so once the node's own
    # step has run nothing reads its gradient, step or parents again.  Each
    # node is popped off ``order`` so that the sweep keeps no reference to
    # it: its data dies with the last backward step that kept it.
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._grad, node._backward, node._parents = None, _swept, ()


# glibc's mallopt parameter numbers, and the cap its dynamic mmap threshold
# rises to on a 64-bit build (the dynamic trim threshold follows at twice it).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_heap_mapped() -> None:
    """Fix glibc's heap thresholds where the dynamic rule would end up, so
    that memory a tape or scoring pass frees stays mapped for the next one.

    A training step frees its whole tape when it ends.  Under the default
    dynamic thresholds glibc returns much of that memory to the kernel, and
    the next step faults the same pages in again (about 30K minor faults per
    benchmark training epoch).  With the mmap threshold at 32 MiB and the
    trim threshold at 64 MiB, every temporary below 32 MiB comes from the
    heap, and up to 64 MiB of freed memory stays mapped in the process.  Both
    are set, because setting either one turns the dynamic rule off for
    both.  Nothing is computed differently.  A C library without ``mallopt``
    is left as it is; calling this again changes nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


class ParamStore:
    """Named parameters with stable iteration order, one flat training state
    and binary checkpoints.

    Once the model is complete, :meth:`lay_out` moves the parameters into
    one contiguous buffer (:attr:`data`, in the parameters' dtype) in
    insertion order, and each parameter's ``data`` becomes a view of it.
    The flat gradient buffer (:attr:`grad`) is made on first use, which a
    store that is only scored or saved never reaches; from then on each
    parameter's gradient is a view of the same span of it.  The optimizer,
    clipping and :meth:`zero_grads` work on these two buffers, and an
    in-place update of either is seen through every view.
    :meth:`LinkPredictor.build <hyrel.predictor.LinkPredictor.build>` lays
    its store out; any other store is laid out on first use of :attr:`data`
    or :attr:`grad`.  Nothing can be added once the store is laid out.

    Checkpoint layout: an 8-byte magic/version header, a record count, then
    per record the UTF-8 name, the (rows, cols) shape and row-major 32-bit
    little-endian values.  Round trips are byte-exact.
    """

    MAGIC = b"HYRELP1\n"

    def __init__(self):
        self._params: dict[str, Value] = {}
        self._data: Array | None = None
        self._grad: Array | None = None

    def add(self, name: str, data) -> Value:
        if self._data is not None:
            raise ContractError(f"cannot add {name!r}: the parameters are laid out")
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        v = Value(np.array(data, copy=True))
        self._params[name] = v
        return v

    def lay_out(self) -> None:
        """Move every parameter into the flat buffer (once; later calls do
        nothing).  All parameters must share one dtype."""
        if self._data is not None:
            return
        dtypes = {v.data.dtype for v in self._params.values()}
        if len(dtypes) > 1:
            raise ContractError(f"parameters of one store share a dtype, got "
                                f"{sorted(map(str, dtypes))}")
        self._bind(np.concatenate([v.data.ravel() for v in self._params.values()])
                   if self._params else np.empty(0, dtype=np.float32))

    def _views(self, flat: Array) -> list[Array]:
        """``flat`` cut into one view per parameter, in the parameters' shapes."""
        views, start = [], 0
        for v in self._params.values():
            views.append(flat[start:start + v.data.size].reshape(v.shape))
            start += v.data.size
        return views

    def _bind(self, data: Array) -> None:
        self._data = data
        for v, view in zip(self._params.values(), self._views(data)):
            v.data = view

    @property
    def data(self) -> Array:
        """The flat buffer of every parameter's values."""
        self.lay_out()
        return self._data

    @property
    def grad(self) -> Array:
        """The flat buffer of every parameter's gradient, made on first use:
        from then on each parameter's gradient is its view of it, holding
        what the parameter's gradient held before (zero if nothing)."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
            for v, view in zip(self._params.values(), self._views(self._grad)):
                if v._grad is not None:
                    view[...] = v._grad
                v._grad = view
        return self._grad

    def __getitem__(self, name: str) -> Value:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def values(self) -> list[Value]:
        return list(self._params.values())

    def items(self) -> list[tuple[str, Value]]:
        return list(self._params.items())

    def zero_grads(self) -> None:
        self.grad.fill(0)

    def copy(self) -> "ParamStore":
        """The same names and values in a new store of their own."""
        out = ParamStore()
        out._params = {name: Value(v.data) for name, v in self._params.items()}
        out._bind(self.data.copy())
        return out

    def to_bytes(self) -> bytes:
        chunks = [self.MAGIC, struct.pack("<I", len(self._params))]
        for name, v in self._params.items():
            encoded = name.encode("utf-8")
            rows, cols = v.shape
            chunks.append(struct.pack("<H", len(encoded)))
            chunks.append(encoded)
            chunks.append(struct.pack("<II", rows, cols))
            chunks.append(np.ascontiguousarray(v.data, dtype="<f4").tobytes())
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ParamStore":
        """Parse a checkpoint; any truncation, repeated name or trailing byte
        is a DataError."""
        if blob[:8] != cls.MAGIC:
            raise DataError("not a parameter checkpoint (bad magic header)")
        offset = 8

        def take(nbytes: int, what: str) -> bytes:
            nonlocal offset
            if offset + nbytes > len(blob):
                raise DataError(f"truncated parameter checkpoint: {what} needs {nbytes} "
                                f"byte(s) at offset {offset}, {len(blob) - offset} left")
            chunk = blob[offset:offset + nbytes]
            offset += nbytes
            return chunk

        store = cls()
        (count,) = struct.unpack("<I", take(4, "record count"))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            try:
                name = take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataError(f"parameter name is not UTF-8: {e}") from None
            if name in store:
                raise DataError(f"parameter checkpoint repeats the name {name!r}")
            rows, cols = struct.unpack("<II", take(8, f"shape of {name!r}"))
            raw = take(rows * cols * 4, f"values of {name!r}")
            arr = np.frombuffer(raw, dtype="<f4").reshape(rows, cols)
            store.add(name, arr.astype(np.float32))
        if offset != len(blob):
            raise DataError(f"parameter checkpoint has {len(blob) - offset} trailing byte(s)")
        return store


class Adam:
    """Adam update with bias correction over a store's flat parameter buffer.

    The two moment estimates are flat arrays beside it.  Adam is elementwise,
    so one update of the whole buffer gives every parameter exactly what a
    per-tensor update would.  The update runs in place: the moments and the
    parameters are updated through one scratch buffer of two rows, made
    once, with the operations of the textbook expression in its order, so a
    step allocates no array of the buffer's size.
    """

    def __init__(self, store: ParamStore, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = np.zeros_like(store.data)
        self._v = np.zeros_like(store.data)
        self._scratch = np.empty((2, store.data.size), dtype=store.data.dtype)

    def step(self) -> None:
        """``m += (1 - beta1)·(g - m)``, ``v += (1 - beta2)·(g² - v)``, then
        ``data -= lr·(m / b1t) / (sqrt(v / b2t) + eps)``."""
        self.t += 1
        b1t = 1 - self.beta1 ** self.t
        b2t = 1 - self.beta2 ** self.t
        data, g, m, v = self.store.data, self.store.grad, self._m, self._v
        tmp, den = self._scratch
        np.subtract(g, m, out=tmp)
        tmp *= 1 - self.beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp -= v
        tmp *= 1 - self.beta2
        v += tmp
        np.divide(m, b1t, out=tmp)
        tmp *= self.lr
        np.divide(v, b2t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        tmp /= den
        data -= tmp


def clip_global_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all of ``store``'s gradients so their joint L2 norm is at most
    ``max_norm``; return the norm before scaling.

    The squares are summed in float64 per parameter, in store order, and the
    per-parameter sums added left to right.
    """
    squares = store.grad.astype(np.float64)
    squares **= 2
    total = 0.0
    for view in store._views(squares):
        total += float(view.sum())
    norm = total ** 0.5
    if norm > max_norm and norm > 0:
        store.grad[...] *= max_norm / norm
    return norm


def finite_difference(loss_fn: Callable[[], Value], param: Value, h: float = 1e-4) -> Array:
    """Central finite-difference gradient of ``loss_fn`` w.r.t. one parameter.

    Uses forward evaluations only, so it stays independent of the reverse
    sweep it is used to check.  An entry whose +h and -h passes differ in
    the mask of some relu, where a pre-activation crossed the kink and a
    central difference is undefined, is NaN.  A probe whose loss is not
    finite is a :class:`NumericalError`.
    """
    grad = np.zeros_like(param.data, dtype=np.float64)
    for idx in np.ndindex(*param.data.shape):
        orig = param.data[idx]
        probes = []
        for step in (h, -h):
            param.data[idx] = orig + step
            masks: list[Array] = []
            token = _relu_masks.set(masks)
            try:
                loss = float(loss_fn().data[0, 0])
            finally:
                _relu_masks.reset(token)
            if not np.isfinite(loss):
                raise NumericalError(f"loss {loss} at entry {idx} moved by {step}")
            probes.append((loss, masks))
        param.data[idx] = orig
        (hi, hi_masks), (lo, lo_masks) = probes
        crossed = len(hi_masks) != len(lo_masks) or any(
            not np.array_equal(a, b) for a, b in zip(hi_masks, lo_masks))
        grad[idx] = np.nan if crossed else (hi - lo) / (2 * h)
    return grad


class GradientReport(dict):
    """The max relative error of each checked parameter, by name, and how
    many of the ``entries`` checked were ``skipped`` at a relu kink."""

    skipped: int = 0
    entries: int = 0


def check_gradients(loss_fn: Callable[[], Value], params: Mapping[str, Value],
                    h: float = 1e-4, floor: float = 1e-6) -> GradientReport:
    """Max relative error between analytic and finite-difference gradients.

    Analytic gradients come from one backward pass of ``loss_fn``, after each
    parameter's gradient is zeroed in place (a store parameter's stays its
    view of the flat buffer).  Entries where both gradients are below
    ``floor`` count as exact; an entry whose central difference crosses a
    relu kink (:func:`finite_difference`) is skipped and counted.
    """
    for p in params.values():
        p.grad.fill(0)
    backward(loss_fn())
    analytic = {name: p.grad.copy() for name, p in params.items()}
    report = GradientReport()
    for name, p in params.items():
        numeric = finite_difference(loss_fn, p, h)
        skipped = np.isnan(numeric) & np.isfinite(analytic[name])
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric)), floor)
        error = np.abs(analytic[name] - numeric) / denom
        error[skipped] = 0.0
        report[name] = float(error.max()) if p.data.size else 0.0
        report.skipped += int(skipped.sum())
        report.entries += p.data.size
    return report
