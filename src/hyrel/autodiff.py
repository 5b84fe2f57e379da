"""Reverse-mode differentiation over dense 2-D arrays.

Small and closed by design: matrix product, broadcast add/multiply, transpose,
relu, concatenation, layer normalization, row-wise softmax, gather, gated
gather, scatter-add, per-row column picks and sums, per-row cross-entropy and
the total sum, which is everything the encoders, decoder and training loss
compose from.  Arithmetic is 32-bit by default; gradient checking builds the
same graphs over 64-bit parameters.

Aggregation by index (``scatter_add`` and the backward pass of ``gather``)
is always a segment sum over a :class:`Segments` plan, built once per index
array and reused by every layer that sums over it.  Every run is added
strictly left to right, so a zero cell adds nothing and leaving entries out
of a sum is the same as zeroing them.  Both ops take a block count: blocks
of rows stacked along the rows share one plan, each block summed on its own,
and zeroed (entry, block) cells leave an entry out of one block only.
``scatter_add`` also fans rows out: a second plan names the message row
``rows[e]`` that destination entry e reads, so a message shared by many
edges is computed once and only the sum sees every edge.  A sum takes its
entries slab by slab, so the per-entry rows are never held in full past
:data:`SLAB_BYTES`.

Only what a gradient needs is recorded.  A :class:`Value` made by
``Value(data)`` (a parameter, or an input under a gradient check) needs a
gradient; :meth:`Value.constant` makes one that does not, and plain arrays
passed to ``add``, ``mul`` and ``matmul`` are constants too.  An op whose
operands are all constants returns a constant: it keeps no parents and no
backward step, so its inputs are freed as soon as the caller drops them,
and a pass over constants only (scoring with a trained model) records no
tape at all.  An op with a tracked operand records itself, and its backward
step skips the constant operands, so no constant ever gets a gradient
buffer.

Gradient buffers are owned, never shared.  In the backward sweep a node's
first gradient contribution becomes its buffer as it is, unless it is a view
of another node's gradient (the gradient passed through, a slice of it, or
its transpose), which is copied; later contributions add into it.  A
parameter of a :class:`ParamStore` in training already has its buffer: its
view of the store's one flat gradient buffer, so contributions add into
that, and the optimizer, clipping and zeroing work on the whole flat buffer
at once.

Calling :func:`backward` twice without zeroing accumulates gradients
additively; that is the documented contract, not a bug.
"""

from __future__ import annotations

import ctypes
import struct
from contextvars import ContextVar
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
    before then gives a zeroed buffer.  A laid-out :class:`ParamStore`
    parameter's ``data`` is a view of the store's flat buffer, and so is its
    gradient once the store's flat gradient buffer exists.
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

    return _record(da @ db, (va, vb), bwd)


def transpose(a: Value) -> Value:
    def bwd(g: Array):
        _accumulate(a, g.T, view=True)

    return _record(a.data.T.copy(), (a,), bwd)


# Set by :func:`finite_difference` while it probes: every relu appends its
# mask, so a probe can tell whether a perturbation crossed a kink.
_relu_masks: ContextVar[list[Array] | None] = ContextVar("relu_masks", default=None)


def relu(a: Value) -> Value:
    """max(a, 0), with NaN kept so that a diverged input shows downstream.

    Adding +0 turns -0 into +0, so every other entry equals
    ``np.where(a > 0, a, 0)`` bit for bit, at a tenth of its cost.
    """
    y = np.maximum(a.data, 0)
    y += 0
    masks = _relu_masks.get()
    if masks is not None:
        masks.append(y > 0)

    def bwd(g: Array):
        _accumulate(a, g * (y > 0))

    return _record(y, (a,), bwd)


def concat(parts: Sequence[Value], axis: int = 1) -> Value:
    """Concatenate along rows (axis=0) or columns (axis=1)."""
    if axis not in (0, 1):
        raise ShapeError(f"axis must be 0 or 1, got {axis}")
    parts = list(parts)
    if not parts:
        raise ContractError("concat of zero parts")
    sizes = [p.shape[axis] for p in parts]

    def bwd(g: Array):
        offset = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                sl = (slice(offset, offset + size), slice(None)) if axis == 0 \
                    else (slice(None), slice(offset, offset + size))
                _accumulate(p, g[sl], view=True)
            offset += size

    return _record(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


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
    value of each run, ascending and distinct.  :meth:`block_sums` returns
    the runs in the order of ``sum_rows`` instead, longest first.

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

    def _block_rows(self, blocks: int, stride: int) -> Array:
        """The (runs, blocks) rows q·``stride`` + ``sum_rows``, where the cells
        of :meth:`block_sums` belong."""
        return self._memoized(("rows", blocks, stride), lambda: (
            self.sum_rows[:, None] + stride * np.arange(blocks)))

    def _permutation(self, blocks: int) -> Array:
        """Where :meth:`block_sums` puts each cell, as a row order: row q·n +
        r of its flattened (runs, blocks) cells reordered is block q's run of
        index value r, when the n runs are of 0 to n - 1."""
        return self._memoized(("permutation", blocks), lambda: (
            np.argsort(self.sum_rows) * blocks + np.arange(blocks)[:, None]).ravel())

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


def _gather_back(x: Value, plan: Segments, blocks: int, stride: int, g: Array) -> None:
    """Add the gradient ``g`` of rows gathered from ``x`` (block q reading
    rows q·``stride`` + ``plan.index``) into x's, summed over ``plan``."""
    sums = plan.block_sums(g, blocks)
    if blocks > 1 and not stride:  # every block read the same rows
        rows, sums = plan.sum_rows, sums.sum(axis=1)
    else:
        rows = plan._block_rows(blocks, stride)
    if x._grad is None:  # the rows are distinct: write them into zeros
        x._grad = np.zeros_like(x.data)
        x._grad[rows] = sums
    else:
        x._grad[rows] += sums


def gather(x: Value, rows: Sequence[int] | Array | Segments, blocks: int = 1,
           stride: int | None = None) -> Value:
    """Select rows of ``x`` (with repetition) by index, once per block.

    Block q of the result reads rows q·``stride`` + index of ``x``; the
    stride defaults to x's rows over ``blocks``, and 0 makes every block read
    the same rows.  ``rows`` may be a :class:`Segments` plan of the index; a
    plain index is planned here.  The backward pass sums over the plan.
    """
    plan = rows if isinstance(rows, Segments) else Segments(rows)
    if stride is None:
        stride = x.shape[0] // blocks
    _check_rows(plan, x.shape[0], blocks, stride, "row index")
    return _record(np.take(x.data, plan._block_index(blocks, stride), axis=0), (x,),
                   lambda g: _gather_back(x, plan, blocks, stride, g))


def gated_gather(x: Value, src: Segments, gates: Value, gate: Segments, blocks: int,
                 stride: int) -> Value:
    """``mul(gather(x, src, blocks), gather(gates, gate, blocks, stride))``
    in one op, bit for bit, without a gathered copy of the gates per block.

    Block q reads rows q·N + ``src.index`` of ``x``, N being x's rows over
    ``blocks``, times rows q·``stride`` + ``gate.index`` of ``gates``.  With
    stride 0 every block reads the same gate rows, taken once and broadcast
    over the blocks.  When ``gates`` needs no gradient the product is made in
    place of the gathered rows of ``x``, so a pass over constants holds one
    array of the result's size.
    """
    if src.index.size != gate.index.size or x.shape[1] != gates.shape[1]:
        raise ShapeError(f"{src.index.size} rows of {x.shape} cannot be gated by "
                         f"{gate.index.size} rows of {gates.shape}")
    per_block = x.shape[0] // blocks
    _check_rows(src, x.shape[0], blocks, per_block, "row index")
    _check_rows(gate, gates.shape[0], blocks, stride, "gate row index")
    pairs, d = src.index.size, x.shape[1]
    rows = np.take(x.data, src._block_index(blocks, per_block), axis=0).reshape(blocks, pairs, d)
    shared = not stride  # every block reads the same gate rows
    gate_rows = np.take(gates.data, gate.index if shared else gate._block_index(blocks, stride),
                        axis=0).reshape(1 if shared else blocks, pairs, d)
    in_place = not gates.requires_grad and np.result_type(rows, gate_rows) == rows.dtype
    out = np.multiply(rows, gate_rows, out=rows if in_place else None)

    def bwd(g: Array):
        g3 = g.reshape(rows.shape)
        if x.requires_grad:
            _gather_back(x, src, blocks, per_block, (g3 * gate_rows).reshape(g.shape))
        if gates.requires_grad:
            _gather_back(gates, gate, blocks, stride, (g3 * rows).reshape(g.shape))

    return _record(out.reshape(blocks * pairs, d), (x, gates), bwd)


def scatter_add(messages: Value, dst: Sequence[int] | Array | Segments,
                num_rows: int, rows: Segments, blocks: int = 1,
                zeroed: tuple[Array, Array] | None = None) -> Value:
    """Sum message rows into their destination rows; absent rows stay zero.

    ``dst`` may be a :class:`Segments` plan of the destination index.  The
    plan ``rows``, as long as ``dst``, names the message row of each entry:
    entry e of ``dst`` receives message row ``rows.index[e]``, so one row
    may fan out to many destinations.  The fanned-out rows are taken slab
    by slab inside the sum (:meth:`Segments.block_sums`), and the backward
    pass sums each row's destinations over the ``rows`` plan.

    The messages and the ``num_rows`` result stack ``blocks`` equal blocks
    of rows, and block q of the result sums block q's messages.  The
    ``zeroed`` cells, a pair of arrays of entries and their blocks, are left
    out of both sums (:meth:`Segments.block_sums`).
    """
    plan = dst if isinstance(dst, Segments) else Segments(dst)
    per_block = messages.shape[0] // blocks
    if plan.index.size != rows.index.size or messages.shape[0] != blocks * per_block \
            or num_rows % blocks:
        raise ShapeError(f"need one destination per message entry of {blocks} block(s), got "
                         f"{plan.index.shape} for {rows.index.size} entries, "
                         f"{messages.shape[0]} message rows and {num_rows} destination rows")
    width = num_rows // blocks
    _check_rows(plan, num_rows, blocks, width, "destination index")
    _check_rows(rows, messages.shape[0], blocks, per_block, "message row index")
    acc = np.zeros((num_rows, messages.shape[1]), dtype=messages.data.dtype)
    acc[plan._block_rows(blocks, width)] = plan.block_sums(
        messages.data, blocks, rows.index, zeroed)
    idx = plan.index

    def bwd(g: Array):
        sums = rows.block_sums(g, blocks, idx, zeroed)
        if rows.rows.size == per_block:  # every message row is read: permute the sums
            _accumulate(messages, np.take(sums.reshape(-1, sums.shape[2]),
                                          rows._permutation(blocks), axis=0))
        else:
            messages.grad[rows._block_rows(blocks, per_block)] += sums

    return _record(acc, (messages,), bwd)


def total_sum(a: Value) -> Value:
    def bwd(g: Array):
        _accumulate(a, np.full(a.shape, g[0, 0], dtype=a.data.dtype))

    return _record(a.data.sum(dtype=a.data.dtype).reshape(1, 1), (a,), bwd)


def _column_sums(values: Array, cols: Array, width: int) -> Array:
    """``out[r, k]`` = the sum of ``values[r, c]`` over the c with
    ``cols[r, c] == k``, added in ascending c; entries of column ``width``
    are dropped."""
    rows = values.shape[0]
    flat = (cols + (width + 1) * np.arange(rows)[:, None]).ravel()
    out = np.zeros(rows * (width + 1), dtype=values.dtype)
    np.add.at(out, flat, values.ravel())
    return out.reshape(rows, width + 1)[:, :width]


def take_columns(x: Value, cols: Array, fill: float = 0.0) -> Value:
    """Pick per row: ``out[r, c] = x[r, cols[r, c]]``, and ``fill`` where
    ``cols[r, c]`` equals x's column count.  The backward pass sums each
    picked entry's gradient back into its column (:func:`sum_columns`)."""
    cols = np.asarray(cols, dtype=np.int64)
    width = x.shape[1]
    if cols.ndim != 2 or cols.shape[0] != x.shape[0]:
        raise ShapeError(f"need one row of column picks per row of {x.shape}, got {cols.shape}")
    if cols.size and (cols.min() < 0 or cols.max() > width):
        raise IndexError(f"column pick out of range for {width} columns")
    padded = np.concatenate([x.data, np.full((x.shape[0], 1), fill, dtype=x.data.dtype)],
                            axis=1)

    def bwd(g: Array):
        _accumulate(x, _column_sums(g, cols, width))

    return _record(np.take_along_axis(padded, cols, axis=1), (x,), bwd)


def sum_columns(x: Value, cols: Array, width: int) -> Value:
    """Sum per row by column label: ``out[r, k]`` adds the ``x[r, c]`` with
    ``cols[r, c] == k``, for k < ``width``; label ``width`` is dropped.  The
    adjoint of :func:`take_columns`."""
    cols = np.asarray(cols, dtype=np.int64)
    if cols.shape != x.shape:
        raise ShapeError(f"need one column label per entry of {x.shape}, got {cols.shape}")
    if cols.size and (cols.min() < 0 or cols.max() > width):
        raise IndexError(f"column label out of range for {width} columns")

    def bwd(g: Array):
        padded = np.concatenate([g, np.zeros((g.shape[0], 1), dtype=g.dtype)], axis=1)
        _accumulate(x, np.take_along_axis(padded, cols, axis=1))

    return _record(_column_sums(x.data, cols, width), (x,), bwd)


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


def backward(root: Value) -> None:
    """Reverse sweep from a scalar root; gradients accumulate into ``.grad``."""
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
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    _accumulate(root, np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


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
    per-tensor update would.
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

    def step(self) -> None:
        self.t += 1
        b1t = 1 - self.beta1 ** self.t
        b2t = 1 - self.beta2 ** self.t
        data, g, m, v = self.store.data, self.store.grad, self._m, self._v
        m += (1 - self.beta1) * (g - m)
        v += (1 - self.beta2) * (g * g - v)
        data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


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
                    h: float = 1e-4, rtol: float = 1e-3,
                    floor: float = 1e-6) -> GradientReport:
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
