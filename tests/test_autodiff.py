import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyrel.autodiff as ad
from hyrel import ContractError, DataError, ShapeError
from hyrel.autodiff import (Adam, MessagePlan, ParamStore, Segments, Value, backward,
                            check_gradients, clip_global_norm, finite_difference)


def val(data):
    return Value(np.asarray(data, dtype=np.float64))


def fd_check(build_loss, params, rtol=1e-3):
    report = check_gradients(build_loss, params, h=1e-4)
    worst = max(report.values())
    assert worst <= rtol, report
    return worst


def test_matmul_identity():
    x = val([[1.0, 2.0], [3.0, 4.0]])
    eye = val(np.eye(2))
    assert np.allclose(ad.matmul(eye, x).data, x.data)


def test_matmul_hand_value():
    out = ad.matmul(val([[1.0, 2.0]]), val([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        ad.matmul(val([[1.0, 2.0]]), val([[1.0, 2.0]]))
    assert "(1, 2)" in str(e.value)


def test_matmul_gradient_matches_finite_differences(rng):
    a = Value(rng.normal(size=(3, 4)))
    b = Value(rng.normal(size=(4, 2)))
    fd_check(lambda: ad.total_sum(ad.matmul(a, b)), {"a": a, "b": b})


def test_add_mul_broadcast_gradients(rng):
    x = Value(rng.normal(size=(3, 4)))
    row = Value(rng.normal(size=(1, 4)))
    col = Value(rng.normal(size=(3, 1)))
    scalar = Value(rng.normal(size=(1, 1)))
    fd_check(lambda: ad.total_sum(ad.mul(ad.add(x, row), ad.add(col, scalar))),
             {"x": x, "row": row, "col": col, "scalar": scalar})


def test_relu_gradient(rng):
    x = Value(rng.normal(size=(4, 4)) + 0.05)  # keep entries away from the kink
    fd_check(lambda: ad.total_sum(ad.dense_relu([x], np.eye(4), np.zeros((1, 4)))), {"x": x})


def test_concat_gradient_of_stacked_rows(rng):
    a = Value(rng.normal(size=(2, 3)))
    b = Value(rng.normal(size=(1, 3)))
    c = Value(rng.normal(size=(2, 3)))
    fd_check(lambda: ad.total_sum(ad.mul(ad.concat([a, b, c, a]), ad.concat([c, a, b, a]))),
             {"a": a, "b": b, "c": c})


def test_dense_relu_gradient_matches_finite_differences(rng):
    # A part joined twice gets the sum of its two column slices.
    a = Value(rng.normal(size=(3, 2)))
    b = Value(rng.normal(size=(3, 3)))
    w = Value(rng.normal(size=(7, 4)))
    bias = Value(rng.normal(size=(1, 4)))
    weight = rng.normal(size=(3, 4))
    fd_check(lambda: ad.total_sum(ad.mul(ad.dense_relu([a, b, a], w, bias), weight)),
             {"a": a, "b": b, "w": w, "bias": bias})


def _relu(a):
    """The relu tape op that :func:`ad.dense_relu` replaced."""
    y = np.maximum(a.data, 0)
    y += 0
    return ad._record(y, (a,), lambda g: ad._accumulate(a, g * (y > 0)))


def _concat_columns(parts):
    """The column concatenation that :func:`ad.dense_relu` replaced."""
    widths = [p.shape[1] for p in parts]

    def bwd(g):
        offset = 0
        for p, width in zip(parts, widths):
            if p.requires_grad:
                ad._accumulate(p, g[:, offset:offset + width], view=True)
            offset += width

    return ad._record(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bwd)


def _unfused_dense_relu(parts, w, b):
    return _relu(ad.add(ad.matmul(_concat_columns(parts), w), b))


# Draws of a (rows, width) input: normal, a fifth NaN, or zeros of either
# sign and tiny negatives, which put pre-activations at and near the kink.
DENSE_INPUTS = {
    "normal": lambda r, shape: r.normal(size=shape),
    "nan": lambda r, shape: np.where(r.random(shape) < 0.2, np.nan, r.normal(size=shape)),
    "zeros": lambda r, shape: r.choice([-0.0, 0.0, -1e-45], shape),
}


@pytest.mark.parametrize("kind", sorted(DENSE_INPUTS))
@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_relu_equals_the_unfused_chain_bit_for_bit(kind, count, dtype):
    r = np.random.default_rng(count)
    widths = [3, 1, 4][:count]
    arrays = [DENSE_INPUTS[kind](r, (5, width)).astype(dtype) for width in widths]
    arrays.append(r.normal(size=(sum(widths), 6)).astype(dtype))
    arrays.append(np.full((1, 6), -0.0, dtype) if kind == "zeros"
                  else r.normal(size=(1, 6)).astype(dtype))
    weight = r.normal(size=(5, 6)).astype(dtype)

    def run(op):
        operands = [Value(a.copy()) for a in arrays]
        out = op(operands[:-2], operands[-2], operands[-1])
        backward(ad.total_sum(ad.mul(out, weight)))
        return [out.data] + [v.grad for v in operands]

    fused, unfused = run(ad.dense_relu), run(_unfused_dense_relu)
    for a, b in zip(fused, unfused):
        assert a.dtype == dtype and a.tobytes() == b.tobytes()
    out = fused[0]
    assert not np.signbit(out[out == 0]).any()  # no -0 out of the relu
    assert np.isnan(out).any() == (kind == "nan")


def test_softmax_rows_sum_to_one(rng):
    x = Value(rng.normal(size=(5, 7)))
    y = ad.rowwise_softmax(x)
    assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_uniform_row():
    y = ad.rowwise_softmax(val([[0.0, 0.0, 0.0]]))
    assert np.allclose(y.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_no_overflow():
    y = ad.rowwise_softmax(val([[1000.0, 0.0]]))
    assert np.isfinite(y.data).all()
    assert y.data[0, 0] > 0.999999


def test_softmax_gradient(rng):
    x = Value(rng.normal(size=(3, 5)))
    w = Value(rng.normal(size=(5, 1)))
    fd_check(lambda: ad.total_sum(ad.matmul(ad.rowwise_softmax(x), w)),
             {"x": x, "w": w})


def test_layer_norm_gradient(rng):
    x = Value(rng.normal(size=(4, 6)))
    g = Value(rng.normal(size=(1, 6)))
    b = Value(rng.normal(size=(1, 6)))
    fd_check(lambda: ad.total_sum(ad.mul(ad.layer_norm(x, g, b),
                                         Value(rng.normal(size=(4, 6)) * 0 + 1.3))),
             {"x": x, "g": g, "b": b})


def test_gather_gradient(rng):
    x = Value(rng.normal(size=(5, 3)))
    w = Value(rng.normal(size=(3, 1)))
    for idx in ([0, 2, 2, 4], [4, 0, 2, 2, 4, 1], np.array([3, 1, 1, 0, 3])):
        fd_check(lambda: ad.total_sum(ad.matmul(ad.gather(x, idx), w)), {"x": x})
        out = ad.gather(x, idx)
        assert np.allclose(out.data, x.data[idx])


def test_gather_out_of_range():
    with pytest.raises(IndexError):
        ad.gather(val([[1.0]]), [1])
    with pytest.raises(IndexError):
        ad.gather(val([[1.0]] * 3), np.array([0, 1, 2, 3, 0]))
    with pytest.raises(IndexError):
        ad.gather(val([[1.0]] * 3), [0, 1, -1, 2, 0])
    with pytest.raises(ShapeError):
        ad.gather(val([[1.0]] * 3), [[0, 1], [1, 2], [2, 0]])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gather_gradient_is_the_level_sum_bit_for_bit(data):
    # Repeated and unreached rows, signed zeros, infinities and NaNs, both
    # float widths, and an empty index.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    num_rows, width = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.integers(0, num_rows - 1), max_size=30))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e30, -1e-30])
    g = rng.normal(size=(len(rows), width)) * 10.0 ** rng.integers(-4, 5, size=(len(rows), 1))
    g = np.where(rng.random(g.shape) < 0.3, rng.choice(special, g.shape), g).astype(dtype)
    for index, grad in ((rows, g), ([], g[:0])):  # and an empty index, every time
        x = Value(rng.normal(size=(num_rows, width)).astype(dtype))
        with np.errstate(invalid="ignore", over="ignore"):  # the loss may be inf - inf
            backward(ad.total_sum(ad.mul(ad.gather(x, index), Value.constant(grad))))
            expected = Segments(index).sums(grad, num_rows)
        assert x.grad.dtype == dtype and x.grad.tobytes() == expected.tobytes()


def plan_of(src, gate, fan, dst, blocks=1, zeroed=None):
    """A :class:`MessagePlan` of plain index lists: pair p multiplies node
    ``src[p]`` by gate row ``gate[p]``, and edge e adds pair ``fan[e]`` into
    node ``dst[e]``."""
    return MessagePlan(*(Segments(np.asarray(i, dtype=np.int64)) for i in (src, gate, fan, dst)),
                       blocks, zeroed)


def summed(values, dst, num_rows):
    """``scatter_add`` as a plain segment sum of the rows of ``values`` at
    ``dst``: pair e gates a row of ones by row e of ``values`` (the gate
    table, so its gradient is the sums' backward) and is read by edge e."""
    e = len(dst)
    ones = Value.constant(np.ones((num_rows, values.shape[1]), dtype=values.dtype))
    return ad.scatter_add(ones, Value(values), plan_of(np.zeros(e), np.arange(e), np.arange(e),
                                                       dst))


def test_scatter_add_hand_value():
    x = val([[1.0, 1.0], [2.0, 2.0]])
    out = ad.scatter_add(x, val([[1.0, 1.0]]), plan_of([0, 1], [0, 0], [0, 1], [0, 0]))
    assert out.data.tolist() == [[3.0, 3.0], [0.0, 0.0]]


def test_scatter_add_empty():
    x, gates = Value(np.ones((4, 3))), Value(np.ones((2, 3)))
    out = ad.scatter_add(x, gates, plan_of([], [], [], []))
    assert out.data.shape == (4, 3)
    assert (out.data == 0).all()
    backward(ad.total_sum(out))
    assert (x.grad == 0).all() and (gates.grad == 0).all()


def test_scatter_add_index_error():
    x, gates = val([[1.0], [1.0]]), val([[1.0], [1.0]])
    for src, gate, fan, dst in (([0], [0], [0], [3]),          # destination past the nodes
                                ([0, 1], [0, 0], [0, 1], [1, -1]),
                                ([2], [0], [0], [0]),          # source past the nodes
                                ([0], [-1], [0], [0]),         # gate row before the table
                                ([0], [2], [0], [0])):         # and past it
        with pytest.raises(IndexError):
            ad.scatter_add(x, gates, plan_of(src, gate, fan, dst))


def test_scatter_add_shape_error():
    x, gates = val([[1.0], [1.0]]), val([[1.0], [1.0]])
    with pytest.raises(ShapeError):  # one gate row per source
        ad.scatter_add(x, gates, plan_of([0, 1], [0], [0], [0]))
    with pytest.raises(ShapeError):  # one pair read per destination
        ad.scatter_add(x, gates, plan_of([0], [0], [0, 0], [0]))
    with pytest.raises(ShapeError):  # gates as wide as the states
        ad.scatter_add(x, val([[1.0, 1.0]]), plan_of([0], [0], [0], [0]))
    with pytest.raises(ShapeError):  # states that do not split into the blocks
        ad.scatter_add(val([[1.0]] * 3), gates, plan_of([0], [0], [0], [0], blocks=2))
    with pytest.raises(ShapeError):  # a source past its block's nodes
        ad.scatter_add(val([[1.0]] * 4), gates, plan_of([2], [0], [0], [0], blocks=2))
    with pytest.raises(ShapeError):  # a destination past its block's nodes
        ad.scatter_add(val([[1.0]] * 4), gates, plan_of([0], [0], [0], [2], blocks=2))
    with pytest.raises(ShapeError):  # a gate row past its block's gates
        ad.scatter_add(val([[1.0]] * 4), val([[1.0]] * 4),
                       plan_of([0], [2], [0], [0], blocks=2), stride=2)


def _check_segment_sum(index, num_rows, width, seed):
    """Plan-based sums (scatter_add forward and backward, gather backward)
    against np.add.at."""
    values = np.random.default_rng(seed).normal(size=(len(index), width))
    expected = np.zeros((num_rows, width))
    np.add.at(expected, np.asarray(index, dtype=np.int64), values)
    out = summed(values, index, num_rows)
    assert np.allclose(out.data, expected, rtol=1e-6)
    weights = np.random.default_rng(seed + 1).normal(size=(num_rows, width))
    (gates,) = out._parents
    backward(ad.total_sum(ad.mul(out, weights)))
    assert np.allclose(gates.grad, weights[np.asarray(index, dtype=np.int64)], rtol=1e-6)
    for dst in (index, np.asarray(index, dtype=np.int64)):
        x = Value(np.zeros((num_rows, width)))
        backward(ad.total_sum(ad.mul(ad.gather(x, dst), Value(values))))
        assert np.allclose(x.grad, expected, rtol=1e-6)


@pytest.mark.parametrize("index, num_rows", [
    ([], 3),                        # empty index
    ([2], 4),                       # a single row
    ([1] * 9, 3),                   # every edge into one row
    ([4, 0, 3, 0, 4, 1, 3, 3], 5),  # unsorted
    ([0, 0, 1, 3, 3, 3, 4, 6], 7),  # already sorted, rows 2 and 5 receive nothing
    ([5, 2, 2, 0, 5, 7], 12),       # num_rows larger than max + 1
])
def test_segment_sum_cases_match_add_at(index, num_rows):
    _check_segment_sum(index, num_rows, 3, len(index))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_segment_sum_matches_add_at(data):
    num_rows = data.draw(st.integers(1, 10))
    index = data.draw(st.lists(st.integers(0, num_rows - 1), max_size=40))
    if data.draw(st.booleans()):
        index.sort()
    _check_segment_sum(index, num_rows, data.draw(st.integers(1, 4)),
                       data.draw(st.integers(0, 2 ** 32 - 1)))


def test_scatter_then_gather_matches_grouping_oracle(rng):
    for _ in range(100):
        e = int(rng.integers(0, 12))
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        messages = rng.normal(size=(e, d))
        dst = rng.integers(0, n, size=e)
        out = summed(messages, dst, n)
        expected = np.zeros((n, d))
        for row, target in enumerate(dst):  # grouping oracle
            expected[target] += messages[row]
        assert np.allclose(out.data, expected, atol=1e-12)


def test_scatter_add_gradient(rng):
    x = Value(rng.normal(size=(4, 3)))
    gates = Value(rng.normal(size=(2, 3)))
    w = Value(rng.normal(size=(3, 1)))
    plan = plan_of([0, 1, 1, 3, 2, 0], [0, 0, 1, 1, 0, 1], np.arange(6), [0, 1, 1, 2, 0, 2])
    fd_check(lambda: ad.total_sum(ad.matmul(ad.scatter_add(x, gates, plan), w)),
             {"x": x, "gates": gates, "w": w})


def test_scatter_add_fan_hand_value():
    # Pair 0 (message [1, 2]) fans out to rows 0 and 2, pair 1 ([10, 20])
    # to row 0 twice.
    x = val([[1.0, 2.0], [5.0, 10.0], [0.0, 0.0]])
    gates = val([[1.0, 1.0], [2.0, 2.0]])
    out = ad.scatter_add(x, gates, plan_of([0, 1], [0, 1], [0, 1, 1, 0], [0, 0, 0, 2]))
    assert out.data.tolist() == [[21.0, 42.0], [0.0, 0.0], [1.0, 2.0]]
    backward(ad.total_sum(ad.mul(out, val([[1.0, 1.0], [5.0, 5.0], [3.0, 3.0]]))))
    # Pair 0's gradient is 1 + 3 = 4, pair 1's 1 + 1 = 2.
    assert x.grad.tolist() == [[4.0, 4.0], [4.0, 4.0], [0.0, 0.0]]
    assert gates.grad.tolist() == [[4.0, 8.0], [10.0, 20.0]]


def test_scatter_add_empty_fan():
    # Pairs that no edge reads add nothing and get no gradient.
    x, gates = Value(np.ones((3, 2))), Value(np.ones((2, 2)))
    out = ad.scatter_add(x, gates, plan_of([0, 2, 1], [1, 0, 0], [], []))
    assert out.data.shape == (3, 2) and (out.data == 0).all()
    backward(ad.total_sum(out))
    assert (x.grad == 0).all() and (gates.grad == 0).all()


def test_scatter_add_fan_errors():
    x, gates = val([[1.0], [1.0]]), val([[1.0]])
    with pytest.raises(IndexError):  # a pair past the plan's pairs
        ad.scatter_add(x, gates, plan_of([0, 1], [0, 0], [0, 2], [0, 1]))
    with pytest.raises(IndexError):
        ad.scatter_add(x, gates, plan_of([0, 1], [0, 0], [-1, 0], [0, 1]))
    with pytest.raises(ShapeError):
        ad.scatter_add(x, gates, plan_of([0, 1], [0, 0], [0, 1], [0, 1, 1]))
    with pytest.raises(ShapeError):  # a pair past its block's pairs
        ad.scatter_add(val([[1.0]] * 4), gates, plan_of([0, 1], [0, 0], [2], [0], blocks=2))


def test_scatter_add_fan_gradient(rng):
    x = Value(rng.normal(size=(5, 3)))
    gates = Value(rng.normal(size=(2, 3)))
    w = Value(rng.normal(size=(3, 1)))
    src, gate = [4, 0, 0, 2], [1, 0, 1, 1]
    dst, fan = [0, 0, 1, 2, 2, 2, 4], [3, 0, 0, 1, 3, 3, 2]
    plan = plan_of(src, gate, fan, dst)
    fd_check(lambda: ad.total_sum(ad.matmul(ad.scatter_add(x, gates, plan), w)),
             {"x": x, "gates": gates, "w": w})
    out = ad.scatter_add(x, gates, plan)
    expected = np.zeros((5, 3))
    messages = x.data[src] * gates.data[gate]
    np.add.at(expected, dst, messages[fan])
    assert np.allclose(out.data, expected, atol=1e-12)


@pytest.mark.parametrize("fan", [False, True])
def test_scatter_add_blocks_sum_their_own_rows_without_zeroed_cells(rng, fan):
    # Two blocks of 4 nodes; edge 1 of block 0 and edge 3 of block 1 are
    # left out of both the sum and the gradient.
    dst = [2, 0, 2, 3, 0]
    src, gate = ([1, 3, 0], [0, 1, 1]) if fan else ([1, 3, 0, 0, 2], [0, 1, 1, 0, 1])
    reads = [1, 0, 1, 2, 2] if fan else list(range(5))
    x = Value(rng.normal(size=(8, 2)))
    gates = Value(rng.normal(size=(2, 2)))
    zeroed = (np.array([1, 3]), np.array([0, 1]))
    plan = plan_of(src, gate, reads, dst, blocks=2, zeroed=zeroed)
    out = ad.scatter_add(x, gates, plan)
    expected = np.zeros((8, 2))
    for q in range(2):
        for e, d in enumerate(dst):
            if (e, q) not in {(1, 0), (3, 1)}:
                p = reads[e]
                expected[4 * q + d] += x.data[4 * q + src[p]] * gates.data[gate[p]]
    assert np.allclose(out.data, expected, atol=1e-12)
    w = Value(rng.normal(size=(2, 1)))
    fd_check(lambda: ad.total_sum(ad.matmul(ad.scatter_add(x, gates, plan), w)),
             {"x": x, "gates": gates})
    with pytest.raises(ShapeError):
        ad.scatter_add(val(np.ones((7, 2))), gates, plan)


def _left_to_right(values, index, blocks, zeroed):
    """The oracle of :meth:`Segments.block_sums`: per distinct index value
    and block, a plain loop over the entries in order, a zeroed cell adding
    -0.0."""
    stride = values.shape[0] // blocks
    out = {}
    for q in range(blocks):
        for e, row in enumerate(index):
            cell = np.full_like(values[0], -0.0) if (e, q) in zeroed else values[q * stride + e]
            key = (row, q)
            out[key] = cell.copy() if key not in out else out[key] + cell
    return out


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_block_sums_add_left_to_right_and_a_zeroed_cell_is_a_dropped_entry(data):
    # Runs of 1 to 90 entries, sometimes one of more than 1,000, sorted or
    # shuffled, over 1-3 blocks, with some cells zeroed.
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    lengths = data.draw(st.lists(st.sampled_from([1, 2, 3, 7, 63, 64, 65, 90]),
                                 min_size=1, max_size=6))
    if data.draw(st.booleans()):
        lengths.append(int(rng.integers(1001, 1300)))
    index = np.repeat(rng.permutation(len(lengths) + 2)[:len(lengths)], lengths)
    if data.draw(st.booleans()):
        rng.shuffle(index)
    blocks = data.draw(st.integers(1, 3))
    width = data.draw(st.integers(1, 3))
    values = (rng.normal(size=(blocks * index.size, width))
              * 10.0 ** rng.integers(-4, 5, size=(blocks * index.size, width))).astype(np.float32)
    values[rng.random(values.shape) < 0.05] = -0.0
    cells = rng.random((index.size, blocks)) < data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    entries, block = np.nonzero(cells)
    plan = Segments(index)
    sums = plan.block_sums(values, blocks, zeroed=(entries, block))
    oracle = _left_to_right(values, index.tolist(), blocks, set(zip(entries.tolist(),
                                                                    block.tolist())))
    for r, row in enumerate(plan.sum_rows.tolist()):
        for q in range(blocks):
            assert sums[r, q].tobytes() == oracle[row, q].tobytes(), (row, q)
    unzeroed = plan.block_sums(values, blocks)
    oracle = _left_to_right(values, index.tolist(), blocks, set())
    for r, row in enumerate(plan.sum_rows.tolist()):
        for q in range(blocks):
            assert unzeroed[r, q].tobytes() == oracle[row, q].tobytes(), (row, q)
    for q in range(blocks):  # zeroing (e, q) equals a plan without entry e
        kept = ~cells[:, q]
        fresh = Segments(index[kept])
        got = dict(zip(plan.sum_rows.tolist(), sums[:, q]))
        for row, total in zip(fresh.sum_rows.tolist(), fresh.block_sums(
                values[q * index.size:(q + 1) * index.size][kept])[:, 0]):
            assert got.pop(row).tobytes() == total.tobytes(), (row, q)
        assert all((left == 0).all() for left in got.values())  # runs with no entry left


def test_block_sums_in_slabs_add_left_to_right_and_a_zeroed_cell_is_a_dropped_entry():
    # The same examples with the slab cap cut to 64 bytes: 1 to 16 slots a
    # slab, so a sum takes several slabs, cuts levels by their runs and
    # zeroes cells in later slabs.
    slabs, most = ad._slabs, []

    def counted(*args):
        out = slabs(*args)
        most.append(len(out))
        return out

    with patch.object(ad, "SLAB_BYTES", 64), patch.object(ad, "_slabs", counted):
        test_block_sums_add_left_to_right_and_a_zeroed_cell_is_a_dropped_entry()
    assert max(most) > 2


def _placed(plan, values, num_rows, blocks, stride, read, zeroed):
    """The oracle of :meth:`Segments.sums`: zeros, then the block sums
    written at the ``sum_rows`` rows of each block, or, with stride 0, their
    sums over the blocks written at the ``sum_rows`` rows."""
    sums = plan.block_sums(values, blocks, read, zeroed)
    out = np.zeros((num_rows, values.shape[1]), dtype=values.dtype)
    if blocks > 1 and not stride:
        out[plan.sum_rows] = sums.sum(axis=1)
    else:
        for q in range(blocks):
            out[q * stride + plan.sum_rows] = sums[:, q]
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sums_land_in_their_rows_as_the_block_sums_placed_by_hand(data):
    # Plans whose runs reach every row of a block and plans that skip rows,
    # rows past the last block, 1-3 blocks, stride 0 and nonzero, zeroed
    # cells and a read index.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    per_block = data.draw(st.integers(1, 12))
    reached = (np.arange(per_block) if data.draw(st.booleans())
               else np.flatnonzero(rng.random(per_block) < 0.5))
    index = np.repeat(reached, rng.integers(1, 5, size=reached.size))
    rng.shuffle(index)
    blocks = data.draw(st.integers(1, 3))
    stride = data.draw(st.sampled_from([0, per_block]))
    num_rows = per_block if not stride else blocks * per_block + data.draw(st.integers(0, 2))
    read = None
    if data.draw(st.booleans()):
        read = rng.integers(0, 6, size=index.size)
    value_rows = index.size if read is None else 6
    width = data.draw(st.integers(1, 3))
    values = rng.normal(size=(blocks * value_rows, width)).astype(np.float32)
    values[rng.random(values.shape) < 0.05] = -0.0
    zeroed = None
    if data.draw(st.booleans()):
        zeroed = np.nonzero(rng.random((index.size, blocks)) < 0.3)
    plan = Segments(index)
    got = plan.sums(values, num_rows, blocks, stride, read, zeroed)
    assert got.shape == (num_rows, width)
    assert got.tobytes() == _placed(plan, values, num_rows, blocks, stride, read,
                                    zeroed).tobytes()

def test_a_sum_in_slabs_holds_its_output_and_at_most_the_cap_more():
    # 200 runs of 10 to 190 entries over 4 blocks of width 32: a gather of
    # every entry at once would take 9.8 MB.  Bound fixed before the first
    # run: the output, one cap, and 64 KB of slack.
    rng = np.random.default_rng(7)
    index = np.repeat(np.arange(200), rng.integers(10, 191, size=200))
    rng.shuffle(index)
    blocks, width = 4, 32
    values = rng.normal(size=(blocks * index.size, width)).astype(np.float32)
    zeroed = np.nonzero(rng.random((index.size, blocks)) < 0.1)
    plan = Segments(index)
    assert index.size * blocks * width * 4 > 8 * ad.SLAB_BYTES
    expected = plan.block_sums(values, blocks, zeroed=zeroed)  # fills the plan's memo
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sums = plan.block_sums(values, blocks, zeroed=zeroed)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sums.tobytes() == expected.tobytes()
    assert peak <= sums.nbytes + ad.SLAB_BYTES + 64 * 1024, peak


def _passed_by_add_at(x, gates, plan, stride, g):
    """The oracle of :func:`scatter_add`: its result and the gradients of
    ``x`` and ``gates`` for the result's gradient ``g``, each sum made by
    ``np.add.at`` in entry order onto -0.0, the identity of float addition,
    in the rows it reaches (+0.0 elsewhere), with the zeroed cells left out.
    Shared gates over several blocks sum their gradient block by block,
    then add the blocks' sums onto +0.0 in block order."""
    blocks, d = plan.blocks, x.shape[1]
    n, pairs = x.shape[0] // blocks, plan.src.index.size
    src, gate, fan, dst = (p.index for p in (plan.src, plan.gate, plan.fan, plan.dst))
    q = np.arange(blocks)[:, None]
    kept = np.ones((blocks, dst.size), dtype=bool)
    if plan.zeroed is not None:
        kept[plan.zeroed[1], plan.zeroed[0]] = False

    def add_at(num_rows, reached, rows, values):
        out = np.zeros((num_rows, d), dtype=values.dtype)
        out[reached] = -0.0
        np.add.at(out, rows, values)  # in the order of ``rows``
        return out

    x_rows = x[q * n + src]                          # (blocks, pairs, d)
    gate_rows = gates[q * stride + gate]             # at stride 0 the same rows in every block
    into = q * n + dst                               # (blocks, edges), block by block
    out = add_at(x.shape[0], into, into[kept], (x_rows * gate_rows)[q, fan][kept])
    reads = q * pairs + fan
    per_pair = add_at(blocks * pairs, reads, reads[kept], g[into][kept]
                      ).reshape(blocks, pairs, d)
    grad_x = add_at(x.shape[0], q * n + src, (q * n + src).ravel(),
                    (per_pair * gate_rows).reshape(-1, d))
    if stride or blocks == 1:
        rows = q * stride + gate
        grad_gates = add_at(gates.shape[0], rows, rows.ravel(),
                            (per_pair * x_rows).reshape(-1, d))
    else:  # +0.0, then each block's sums in block order
        grad_gates = np.zeros_like(gates)
        for b in range(blocks):
            grad_gates += add_at(gates.shape[0], gate, gate, per_pair[b] * x_rows[b])
    return out, grad_x, grad_gates


@pytest.mark.parametrize("blocks,shared", [(1, True), (3, True), (3, False)])
@pytest.mark.parametrize("tracked", ["both", "x", "gates"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scatter_add_matches_the_add_at_oracle_bit_for_bit(blocks, shared, tracked, data):
    # Random plans of fanned-out pairs, sorted or shuffled destinations,
    # zeroed cells, signed zeros and magnitudes over eight decades.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    nodes, kinds, width = (data.draw(st.integers(1, k)) for k in (6, 4, 3))
    pairs = data.draw(st.integers(0, 10))
    edges = data.draw(st.integers(0, 24)) if pairs else 0
    dst = rng.integers(0, nodes, size=edges)
    if data.draw(st.booleans()):
        dst.sort()
    zeroed = None
    if data.draw(st.booleans()):
        zeroed = np.nonzero(rng.random((edges, blocks)) < 0.3)
    plan = plan_of(rng.integers(0, nodes, size=pairs), rng.integers(0, kinds, size=pairs),
                   rng.integers(0, pairs, size=edges), dst, blocks, zeroed)
    stride = 0 if shared else kinds

    def draw(rows):
        a = (rng.normal(size=(rows, width))
             * 10.0 ** rng.integers(-4, 5, size=(rows, width))).astype(np.float32)
        a[rng.random(a.shape) < 0.05] = -0.0
        return a

    x_data = draw(blocks * nodes)
    gate_data = draw((1 if shared else blocks) * kinds)
    g = draw(blocks * nodes)
    x = Value(x_data.copy()) if tracked != "gates" else Value.constant(x_data.copy())
    gates = Value(gate_data.copy()) if tracked != "x" else Value.constant(gate_data.copy())
    out = ad.scatter_add(x, gates, plan, stride)
    expected, grad_x, grad_gates = _passed_by_add_at(x_data, gate_data, plan, stride, g)
    assert out.data.tobytes() == expected.tobytes()
    backward(ad.total_sum(ad.mul(out, g)))
    for v, grad in ((x, grad_x), (gates, grad_gates)):
        if v.requires_grad:
            assert v.grad.tobytes() == grad.tobytes()
        else:
            assert v._grad is None
    assert (x_data == x.data).all() and (gate_data == gates.data).all()


@pytest.mark.parametrize("shared", [True, False])
def test_scatter_add_gradient_matches_finite_differences(shared, rng):
    blocks, nodes, kinds, width = 2, 4, 3, 3
    x = val(rng.normal(size=(blocks * nodes, width)))
    gates = val(rng.normal(size=((1 if shared else blocks) * kinds, width)))
    w = val(rng.normal(size=(width, 1)))
    plan = plan_of([0, 1, 1, 3, 2, 0], [2, 0, 1, 1, 0, 2], [4, 0, 0, 5, 1, 3, 3, 2],
                   [0, 0, 1, 1, 2, 2, 3, 3], blocks, (np.array([2, 6]), np.array([1, 0])))
    fd_check(lambda: ad.total_sum(ad.matmul(ad.scatter_add(
        x, gates, plan, 0 if shared else kinds), w)), {"x": x, "gates": gates})


def gated_gather(x, src, gates, gate, blocks, stride):
    """The gated rows of a batch: row q·P + p is row q·N + ``src[p]`` of
    ``x`` times row q·``stride`` + ``gate[p]`` of ``gates``, for P pairs in
    blocks of N ≥ P node rows.  This is :func:`scatter_add` with one edge
    per pair, pair p into node p."""
    pairs = np.arange(len(src))
    return ad.scatter_add(x, gates, plan_of(src, gate, pairs, pairs, blocks), stride)


def _gather_gather_mul(x, src, gates, gate, blocks, stride):
    """The oracle of :func:`gated_gather`: the rows of both operands taken by
    :func:`ad.gather` and multiplied.  Shared gates are first tiled into one
    block of rows per block, so their gradient sums each block's rows, then
    adds the blocks in block order, as the message pass does."""
    q = np.arange(blocks)[:, None]
    nodes = x.shape[0] // blocks
    if not stride and blocks > 1:
        stride = gates.shape[0]
        gates = ad.gather(gates, np.tile(np.arange(stride), blocks))
    return ad.mul(ad.gather(x, (q * nodes + src).ravel()),
                  ad.gather(gates, (q * stride + gate).ravel()))


@pytest.mark.parametrize("blocks,shared", [(1, True), (3, True), (3, False)])
@pytest.mark.parametrize("tracked", ["both", "x", "gates"])
def test_gated_gather_equals_gather_gather_mul_bit_for_bit(blocks, shared, tracked):
    rng = np.random.default_rng(blocks)
    nodes, kinds, pairs, width = 5, 3, 9, 4
    src = rng.integers(0, nodes, size=pairs)
    gate = rng.integers(0, kinds, size=pairs)
    stride = 0 if shared else kinds
    # A block of ``pairs`` node rows, so that each pair has a row of its own.
    x_data = rng.normal(size=(blocks * pairs, width)).astype(np.float32)
    gate_data = rng.normal(size=((1 if shared else blocks) * kinds, width)).astype(np.float32)
    weights = rng.normal(size=(blocks * pairs, width)).astype(np.float32)
    results = []
    for op in (gated_gather, _gather_gather_mul):
        x = Value(x_data.copy()) if tracked != "gates" else Value.constant(x_data.copy())
        gates = Value(gate_data.copy()) if tracked != "x" else Value.constant(gate_data.copy())
        out = op(x, src, gates, gate, blocks, stride)
        backward(ad.total_sum(ad.mul(out, weights)))
        results.append([out.data.tobytes()] + [v.grad.tobytes() for v in (x, gates)
                                                if v.requires_grad])
        assert (x_data == x.data).all() and (gate_data == gates.data).all()
    assert results[0] == results[1]


@pytest.mark.parametrize("shared", [True, False])
def test_gated_gather_gradient_matches_finite_differences(shared, rng):
    blocks, nodes, kinds, width = 2, 6, 3, 3
    src = [0, 1, 1, 3, 2, 0]
    gate = [2, 0, 1, 1, 0, 2]
    x = val(rng.normal(size=(blocks * nodes, width)))
    gates = val(rng.normal(size=((1 if shared else blocks) * kinds, width)))
    w = val(rng.normal(size=(width, 1)))
    fd_check(lambda: ad.total_sum(ad.matmul(gated_gather(
        x, src, gates, gate, blocks, 0 if shared else kinds), w)), {"x": x, "gates": gates})
    with pytest.raises(ShapeError):
        gated_gather(x, src, gates, [0, 1], blocks, kinds)


def naive_block_attention(q, k, v, key_bias, value_bias, types, heads):
    """``ad.attention`` by loops over block x head x row x key row."""
    blocks, length = types.shape[:2]
    dh = q.shape[1] // heads
    out = np.zeros_like(q)
    for b in range(blocks):
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            for i in range(length):
                row = b * length + i
                keys = [j for j in range(length) if types[b, i, j] < len(key_bias)]
                scores = np.array([q[row, cols] @ (k[b * length + j, cols]
                                                   + key_bias[types[b, i, j], cols])
                                   for j in keys]) / np.sqrt(dh)
                w = np.exp(scores - scores.max())
                w /= w.sum()
                for wj, j in zip(w, keys):
                    out[row, cols] += wj * (v[b * length + j, cols]
                                            + value_bias[types[b, i, j], cols])
    return out


# Two blocks of three rows under three bias types; type 3 masks a pair.
ATTENTION_TYPES = np.array([[[0, 1, 3], [2, 2, 3], [1, 0, 0]],
                            [[3, 0, 1], [1, 1, 1], [0, 3, 2]]])


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_matches_loops_and_its_gradients_hold(heads, rng):
    q, k, v = (val(rng.normal(size=(6, 4))) for _ in range(3))
    key_bias, value_bias = val(rng.normal(size=(3, 4))), val(rng.normal(size=(3, 4)))
    out = ad.attention(q, k, v, key_bias, value_bias, ATTENTION_TYPES, heads)
    expected = naive_block_attention(q.data, k.data, v.data, key_bias.data, value_bias.data,
                                     ATTENTION_TYPES, heads)
    assert np.abs(out.data - expected).max() <= 1e-12
    w = rng.normal(size=(6, 4))
    fd_check(lambda: ad.total_sum(ad.mul(ad.attention(
        q, k, v, key_bias, value_bias, ATTENTION_TYPES, heads), w)),
        {"q": q, "k": k, "v": v, "key_bias": key_bias, "value_bias": value_bias})


def test_attention_blocks_do_not_read_each_other(rng):
    # A block's rows are the bits it gives alone, whatever the other block holds.
    q, k, v = (rng.normal(size=(6, 4)).astype(np.float32) for _ in range(3))
    tables = [Value(rng.normal(size=(3, 4)).astype(np.float32)) for _ in range(2)]
    both = ad.attention(*map(Value, (q, k, v)), *tables, ATTENTION_TYPES, 2).data
    for b in range(2):
        rows = slice(3 * b, 3 * b + 3)
        alone = ad.attention(*(Value(x[rows]) for x in (q, k, v)), *tables,
                             ATTENTION_TYPES[b:b + 1], 2).data
        assert alone.tobytes() == both[rows].tobytes()


def test_attention_rejects_bad_shapes_and_types(rng):
    x = val(rng.normal(size=(6, 4)))
    table = val(rng.normal(size=(3, 4)))
    with pytest.raises(ShapeError):
        ad.attention(x, x, x, table, table, ATTENTION_TYPES[:1], 2)
    with pytest.raises(ShapeError):
        ad.attention(x, x, x, table, table, ATTENTION_TYPES, 3)
    with pytest.raises(IndexError):
        ad.attention(x, x, x, table, table, ATTENTION_TYPES + 1, 2)
    masked = ATTENTION_TYPES.copy()
    masked[1, 2] = 3
    with pytest.raises(ContractError, match="mask every pair"):
        ad.attention(x, x, x, table, table, masked, 2)


def test_block_dots_dot_each_row_with_its_block(rng):
    x, rows = val(rng.normal(size=(2, 3))), val(rng.normal(size=(8, 3)))
    out = ad.block_dots(x, rows)
    assert np.allclose(out.data, [rows.data[4 * b:4 * b + 4] @ x.data[b] for b in range(2)],
                       atol=1e-12)
    w = rng.normal(size=(2, 4))
    fd_check(lambda: ad.total_sum(ad.mul(ad.block_dots(x, rows), w)), {"x": x, "rows": rows})
    with pytest.raises(ShapeError):
        ad.block_dots(x, val(rng.normal(size=(7, 3))))


def test_cross_entropy_per_row(rng):
    logits = Value(rng.normal(size=(3, 5)))
    losses = ad.cross_entropy(logits, [4, 0, 2])
    assert losses.shape == (3, 1)
    for row, target in enumerate([4, 0, 2]):
        one = ad.cross_entropy(Value(logits.data[row:row + 1]), target)
        assert abs(losses.data[row, 0] - one.data[0, 0]) < 1e-12
    fd_check(lambda: ad.total_sum(ad.cross_entropy(logits, [4, 0, 2])), {"logits": logits})
    with pytest.raises(ShapeError):
        ad.cross_entropy(logits, [1, 2])


def test_cross_entropy_uniform():
    loss = ad.cross_entropy(val([[1.0, 1.0, 1.0, 1.0]]), 2)
    assert abs(loss.data[0, 0] - math.log(4)) < 1e-12


def test_cross_entropy_closed_form():
    loss = ad.cross_entropy(val([[10.0, -10.0]]), 0)
    assert abs(loss.data[0, 0] - math.log1p(math.exp(-20.0))) < 1e-15


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        ad.cross_entropy(val([[0.0, 0.0]]), 2)


def test_cross_entropy_gradient_is_probs_minus_onehot(rng):
    logits = Value(rng.normal(size=(1, 6)))
    loss = ad.cross_entropy(logits, 3)
    backward(loss)
    probs = np.exp(logits.data - logits.data.max())
    probs /= probs.sum()
    onehot = np.zeros((1, 6))
    onehot[0, 3] = 1
    assert np.allclose(logits.grad, probs - onehot, atol=1e-12)
    fd_check(lambda: ad.cross_entropy(logits, 3), {"logits": logits})


def test_backward_sum_gives_ones():
    p = val([[1.0, 2.0], [3.0, 4.0]])
    backward(ad.total_sum(p))
    assert (p.grad == 1).all()


def test_backward_only_reaches_its_graph():
    a = val([[1.0]])
    b = val([[2.0]])
    backward(ad.total_sum(ad.mul(a, a)))
    assert b.grad[0, 0] == 0.0


def test_backward_rejects_non_scalar():
    with pytest.raises(ContractError):
        backward(val([[1.0, 2.0]]))


def test_tape_replay_accumulates():
    p = val([[2.0]])
    backward(ad.total_sum(ad.mul(p, p)))
    first = p.grad.copy()
    backward(ad.total_sum(ad.mul(p, p)))
    assert np.allclose(p.grad, 2 * first)


def test_second_backward_from_a_swept_root_is_contract_error():
    p = val([[2.0]])
    root = ad.total_sum(ad.mul(p, p))
    backward(root)
    with pytest.raises(ContractError):
        backward(root)
    assert p.grad.tolist() == [[4.0]]


def test_backward_through_a_swept_node_is_contract_error():
    # The swept node would otherwise pass for a leaf and keep its gradient.
    p = val([[2.0]])
    square = ad.mul(p, p)
    backward(ad.total_sum(square))
    with pytest.raises(ContractError):
        backward(ad.total_sum(ad.mul(square, p)))
    assert p.grad.tolist() == [[4.0]]  # raised before any gradient changed


def test_grad_of_a_swept_interior_node_is_contract_error():
    p = val([[2.0, 3.0]])
    square = ad.mul(p, p)
    backward(ad.total_sum(square))
    with pytest.raises(ContractError):
        square.grad
    assert p.grad.tolist() == [[4.0, 6.0]]


def test_backward_frees_the_tape_as_it_sweeps():
    # A chain of 40 tracked ops on 0.5 MB arrays.  Were the interior
    # gradient buffers kept to the end of the sweep, it would add about
    # 40 buffers above its start; released as it goes, it adds a few.
    x = Value(np.ones((256, 256)))
    half, zero = np.eye(256) / 2, np.zeros((1, 256))
    h = x
    for _ in range(20):
        h = ad.dense_relu([h], half, zero)
    root = ad.total_sum(h)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        backward(root)
        added = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert added < 4 * x.data.nbytes, added
    assert (x.grad == 0.5 ** 20).all()


def test_finite_difference_alone(rng):
    x = Value(np.array([[2.0, 3.0]]))
    grad = finite_difference(lambda: ad.total_sum(ad.mul(x, x)), x)
    assert np.allclose(grad, 2 * x.data, atol=1e-6)


def test_param_store_round_trip(rng):
    store = ParamStore()
    store.add("w1", rng.normal(size=(3, 2)).astype(np.float32))
    store.add("w2", rng.normal(size=(1, 5)).astype(np.float32))
    loaded = ParamStore.from_bytes(store.to_bytes())
    assert loaded.names() == ["w1", "w2"]
    for name in store.names():
        assert (loaded[name].data == store[name].data).all()
    # Byte-exact round trip: save -> load -> save reproduces the same bytes.
    assert loaded.to_bytes() == store.to_bytes()


def test_param_store_rejects_truncated_and_trailing_bytes(rng):
    store = ParamStore()
    store.add("w1", rng.normal(size=(3, 2)).astype(np.float32))
    store.add("w2", rng.normal(size=(1, 5)).astype(np.float32))
    blob = store.to_bytes()
    for cut in range(len(blob)):
        with pytest.raises(DataError):
            ParamStore.from_bytes(blob[:cut])
    with pytest.raises(DataError):
        ParamStore.from_bytes(blob + b"\x00")
    with pytest.raises(DataError):
        ParamStore.from_bytes(blob[:14] + b"\xff\xfe" + blob[16:])  # name not UTF-8
    assert ParamStore.from_bytes(blob).to_bytes() == blob


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.add("w", np.zeros((1, 1), dtype=np.float32))
    with pytest.raises(ContractError):
        store.add("w", np.zeros((1, 1), dtype=np.float32))


def test_blob_that_repeats_a_name_is_data_error():
    # A file's content is data: a repeated record is not a caller's mistake.
    store = ParamStore()
    store.add("w", np.zeros((1, 1), dtype=np.float32))
    blob = store.to_bytes()
    twice = blob[:8] + (2).to_bytes(4, "little") + blob[12:] * 2
    with pytest.raises(DataError, match="repeats the name 'w'"):
        ParamStore.from_bytes(twice)


def test_adam_minimizes_quadratic():
    store = ParamStore()
    p = store.add("p", np.array([[5.0, -3.0]], dtype=np.float64))
    opt = Adam(store, lr=0.1)
    for _ in range(400):
        p.grad[...] = 0
        backward(ad.total_sum(ad.mul(p, p)))
        opt.step()
    assert np.abs(p.data).max() < 1e-2


def test_clip_global_norm():
    store = ParamStore()
    a = store.add("a", [[3.0]])
    b = store.add("b", [[4.0]])
    a.grad[...] = 3.0
    b.grad[...] = 4.0
    norm = clip_global_norm(store, 1.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(a.grad[0, 0] - 0.6) < 1e-12
    assert abs(b.grad[0, 0] - 0.8) < 1e-12


def test_determinism_same_seed_bitwise():
    def run():
        r = np.random.default_rng(77)
        x = Value(r.normal(size=(4, 4)).astype(np.float32))
        w = Value(r.normal(size=(4, 4)).astype(np.float32))
        loss = ad.total_sum(ad.dense_relu([x], w, np.zeros((1, 4), dtype=np.float32)))
        backward(loss)
        return loss.data.copy(), w.grad.copy()

    (l1, g1), (l2, g2) = run(), run()
    assert (l1 == l2).all() and (g1 == g2).all()


def test_value_requires_2d():
    with pytest.raises(ShapeError):
        Value(np.zeros(3))


def test_constant_keeps_its_array_and_requires_2d():
    with pytest.raises(ShapeError):
        Value.constant(np.zeros(3))
    data = np.ones((2, 3))
    c = Value.constant(data)
    assert c.data is data and not c.requires_grad and Value(data).requires_grad


# Each op of more than one operand, as a function of its operands, and the
# operands' shapes.
MULTI_OPERAND_OPS = {
    "add": (ad.add, [(3, 4), (1, 4)]),
    "mul": (ad.mul, [(3, 4), (3, 1)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "concat_rows": (lambda a, b, c: ad.concat([a, b, c]), [(2, 3), (4, 3), (1, 3)]),
    "dense_relu": (lambda a, b, w, bias: ad.dense_relu([a, b], w, bias),
                   [(2, 3), (2, 1), (4, 3), (1, 3)]),
    "layer_norm": (ad.layer_norm, [(4, 6), (1, 6), (1, 6)]),
    "attention": (lambda q, k, v, key_bias, value_bias: ad.attention(
        q, k, v, key_bias, value_bias, ATTENTION_TYPES, 2), [(6, 4)] * 3 + [(3, 4)] * 2),
    "block_dots": (ad.block_dots, [(2, 3), (8, 3)]),
}


@pytest.mark.parametrize("name", sorted(MULTI_OPERAND_OPS))
def test_constant_operand_changes_no_other_gradient(name, rng):
    op, shapes = MULTI_OPERAND_OPS[name]
    arrays = [rng.normal(size=shape) for shape in shapes]
    weight = rng.normal(size=op(*map(val, arrays)).shape)

    def operands_after_backward(constant: int | None) -> list[Value]:
        operands = [Value.constant(a) if i == constant else Value(a)
                    for i, a in enumerate(arrays)]
        out = op(*operands)
        assert out._parents == tuple(v for v in operands if v.requires_grad)
        backward(ad.total_sum(ad.mul(out, weight)))
        return operands

    tracked = operands_after_backward(None)
    for constant in range(len(arrays)):
        operands = operands_after_backward(constant)
        assert operands[constant]._grad is None
        for i, v in enumerate(operands):
            if i != constant:
                assert v.grad.tobytes() == tracked[i].grad.tobytes()


def test_ops_over_constants_record_nothing(rng):
    x = Value.constant(rng.normal(size=(4, 4)))
    y = Value.constant(rng.normal(size=(4, 4)))
    row = Value.constant(rng.normal(size=(1, 4)))
    types = np.array([[[0, 1], [0, 0]], [[1, 0], [0, 1]]])
    outs = [ad.add(x, y), ad.add(x, np.ones((1, 4))), ad.mul(x, row), ad.matmul(x, y),
            ad.dense_relu([x], y, row), ad.dense_relu([x, y], np.ones((8, 4)), row),
            ad.dense_relu([x, y, x], Value.constant(np.ones((12, 4))), np.zeros((1, 4))),
            ad.concat([x, y]), ad.rowwise_softmax(x),
            ad.layer_norm(x, row, row), ad.gather(x, [0, 2, 2]),
            ad.scatter_add(x, y, plan_of([0, 3], [1, 1], [1, 0, 1], [2, 0, 3])),
            ad.total_sum(x), ad.attention(x, x, y, row, row, types, 2),
            ad.block_dots(row, x), ad.cross_entropy(x, [0, 1, 2, 3])]
    for out in outs:
        assert not out.requires_grad and out._parents == () and out._backward is None
    for v in (x, y, row):
        assert v._grad is None


def test_backward_from_a_constant_is_contract_error():
    # Returning instead would leave every gradient silently unset.
    p = val([[1.0]])
    with pytest.raises(ContractError, match="constant"):
        backward(ad.total_sum(ad.mul(Value.constant(np.ones((1, 1))), [[2.0]])))
    backward(ad.total_sum(ad.mul(p, Value.constant(np.ones((1, 1))))))
    assert p.grad.tolist() == [[1.0]]


def test_relu_keeps_nan_and_otherwise_equals_where_bit_for_bit():
    for dtype in (np.float32, np.float64):
        x = np.array([[np.nan, -0.0, 0.0, -np.inf, np.inf, -1e-45, 1e-45, -2.5, 3.5]],
                     dtype=dtype).T
        # One column through a weight of 1 and a bias of -0: each
        # pre-activation is its input (its sign of zero aside).
        y = ad.dense_relu([Value(x)], np.ones((1, 1), dtype), np.full((1, 1), -0.0, dtype)).data
        assert np.isnan(y[0, 0]) and y.dtype == dtype
        assert y[1:].tobytes() == np.where(x > 0, x, 0)[1:].astype(dtype).tobytes()


class _PerTensorOracle:
    """The per-tensor ``zero_grads``, ``clip_global_norm`` and ``Adam.step``
    that the flat state replaced, kept as the reference it must equal."""

    def __init__(self, arrays, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = [Value(np.array(a, copy=True)) for a in arrays]
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grads(self):
        for v in self.params:
            v._grad = None

    def clip_global_norm(self, max_norm):
        total = float(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in self.params))
        norm = total ** 0.5
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                p.grad[...] *= scale
        return norm

    def step(self):
        self.t += 1
        b1t = 1 - self.beta1 ** self.t
        b2t = 1 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m += (1 - self.beta1) * (g - m)
            v += (1 - self.beta2) * (g * g - v)
            p.data -= (self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)).astype(p.data.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("max_norm", [0.5, 1e9])  # the clip active, then inactive
def test_flat_update_equals_the_per_tensor_formulas(dtype, max_norm):
    r = np.random.default_rng(3)
    shapes = [(3, 4), (1, 4), (7, 1), (5, 5), (1, 1), (2, 9)]
    arrays = [r.normal(size=s).astype(dtype) for s in shapes]
    store = ParamStore()
    for i, a in enumerate(arrays):
        store.add(f"p{i}", a)
    opt = Adam(store, lr=0.05)
    oracle = _PerTensorOracle(arrays, lr=0.05)
    for _ in range(5):
        grads = [r.normal(size=s).astype(dtype) for s in shapes]
        store.zero_grads()
        oracle.zero_grads()
        for p, q, g in zip(store.values(), oracle.params, grads):
            p.grad[...] += g
            q.grad[...] += g
        norm = clip_global_norm(store, max_norm)
        assert norm == oracle.clip_global_norm(max_norm)
        assert (norm > max_norm) == (max_norm == 0.5)
        opt.step()
        oracle.step()
        for p, q in zip(store.values(), oracle.params):
            assert p.grad.tobytes() == q.grad.tobytes()
            assert p.data.dtype == dtype and p.data.tobytes() == q.data.tobytes()
    assert all(np.shares_memory(p.data, store.data) for p in store.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_is_the_textbook_update_made_in_place(dtype):
    # Over several steps the parameters and both moments equal the textbook
    # expression bit for bit, the gradient is left as it was, and a step
    # updates the same three buffers without a temporary of their size.
    r = np.random.default_rng(5)
    store = ParamStore()
    store.add("a", r.normal(size=(100, 50)).astype(dtype))
    store.add("b", r.normal(size=(1, 7)).astype(dtype))
    lr, beta1, beta2, eps = 0.01, 0.8, 0.99, 1e-6
    opt = Adam(store, lr, beta1, beta2, eps)
    buffers = store.data, opt._m, opt._v
    data, m, v = store.data.copy(), np.zeros_like(store.data), np.zeros_like(store.data)
    for t in range(1, 7):
        store.grad[...] = r.normal(size=store.grad.shape)
        g = store.grad.copy()
        m += (1 - beta1) * (g - m)
        v += (1 - beta2) * (g * g - v)
        data -= lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < store.data.nbytes // 4, peak
        assert (store.data.tobytes(), opt._m.tobytes(), opt._v.tobytes()) == \
            (data.tobytes(), m.tobytes(), v.tobytes())
        assert store.grad.tobytes() == g.tobytes()
    assert all(a is b for a, b in zip(buffers, (store.data, opt._m, opt._v)))


def test_param_store_lays_out_one_buffer_per_state():
    store = ParamStore()
    a = store.add("a", np.ones((2, 3)))
    b = store.add("b", np.full((1, 2), 2.0))
    b.grad[0, 0] = 4.0  # a gradient held before the flat buffer exists moves into it
    store.lay_out()
    assert store.data.tolist() == [1.0] * 6 + [2.0, 2.0] and store.data.dtype == np.float64
    assert a.data.base is store.data and a._grad is None
    assert store.grad.tolist() == [0.0] * 6 + [4.0, 0.0] and b.grad.base is store.grad
    store.data[6] = 5.0
    b.grad[0, 1] = 3.0
    assert b.data[0, 0] == 5.0 and store.grad[7] == 3.0
    store.zero_grads()
    assert not store.grad.any() and b.grad.base is store.grad
    copied = store.copy()
    copied["a"].data[0, 0] = -1.0
    assert a.data[0, 0] == 1.0 and copied.to_bytes() != store.to_bytes()
    with pytest.raises(ContractError, match="laid out"):
        store.add("c", np.zeros((1, 1)))
    mixed = ParamStore()
    mixed.add("x", np.zeros((1, 1), dtype=np.float32))
    mixed.add("y", np.zeros((1, 1), dtype=np.float64))
    with pytest.raises(ContractError, match="dtype"):
        mixed.lay_out()


def test_finite_difference_is_nan_only_where_a_relu_mask_flips():
    # Entry 0 sits within h of the kink: its +h and -h passes differ in
    # relu's mask, so no central difference exists there.  The others are
    # far from it on either side.
    x = Value(np.array([[5e-5, 0.5, -0.5]]))
    def loss():
        def relu():
            return ad.dense_relu([x], np.eye(3), np.zeros((1, 3)))
        return ad.total_sum(ad.mul(relu(), relu()))

    grad = finite_difference(loss, x)
    assert np.isnan(grad[0, 0])
    assert np.allclose(grad[0, 1:], [1.0, 0.0], atol=1e-8)
    report = check_gradients(loss, {"x": x})
    assert report.skipped == 1 and report.entries == 3 and max(report.values()) <= 1e-6
