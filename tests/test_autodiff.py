import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyrel.autodiff as ad
from hyrel import ContractError, DataError, ShapeError
from hyrel.autodiff import (Adam, ParamStore, Segments, Value, backward, check_gradients,
                            clip_global_norm, finite_difference)


def val(data):
    return Value(np.asarray(data, dtype=np.float64))


def identity(n):
    """The plan of a sum without fan-out: entry e reads message row e."""
    return Segments(np.arange(n))


def fd_check(build_loss, params, rtol=1e-3):
    report = check_gradients(build_loss, params, h=1e-4, rtol=rtol)
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
    fd_check(lambda: ad.total_sum(ad.relu(x)), {"x": x})


def test_concat_gradients_both_axes(rng):
    a = Value(rng.normal(size=(2, 3)))
    b = Value(rng.normal(size=(2, 3)))
    c = Value(rng.normal(size=(2, 3)))
    fd_check(lambda: ad.total_sum(ad.matmul(ad.concat([a, b], axis=1),
                                            ad.concat([a, b, c], axis=0))),
             {"a": a, "b": b, "c": c})


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
    # The short index takes the per-row loop; the longer ones a segment plan.
    for idx in ([0, 2, 2, 4], [4, 0, 2, 2, 4, 1], Segments([3, 1, 1, 0, 3])):
        fd_check(lambda: ad.total_sum(ad.matmul(ad.gather(x, idx), w)), {"x": x})
        out = ad.gather(x, idx)
        rows = idx.index if isinstance(idx, Segments) else idx
        assert np.allclose(out.data, x.data[rows])


def test_gather_out_of_range():
    with pytest.raises(IndexError):
        ad.gather(val([[1.0]]), [1])
    with pytest.raises(IndexError):
        ad.gather(val([[1.0]] * 3), Segments([0, 1, 2, 3, 0]))
    with pytest.raises(IndexError):
        ad.gather(val([[1.0]] * 3), [0, 1, -1, 2, 0])
    with pytest.raises(ShapeError):
        ad.gather(val([[1.0]] * 3), [[0, 1], [1, 2], [2, 0]])


def test_scatter_add_hand_value():
    messages = val([[1.0, 1.0], [2.0, 2.0]])
    out = ad.scatter_add(messages, [0, 0], 2, identity(2))
    assert out.data.tolist() == [[3.0, 3.0], [0.0, 0.0]]


def test_scatter_add_empty():
    out = ad.scatter_add(Value(np.zeros((0, 3))), [], 4, identity(0))
    assert out.data.shape == (4, 3)
    assert (out.data == 0).all()


def test_scatter_add_index_error():
    with pytest.raises(IndexError):
        ad.scatter_add(val([[1.0]]), [3], 2, identity(1))
    with pytest.raises(IndexError):
        ad.scatter_add(val([[1.0], [1.0]]), Segments([1, -1]), 2, identity(2))


def test_scatter_add_shape_error():
    with pytest.raises(ShapeError):
        ad.scatter_add(val([[1.0], [1.0]]), [0], 2, identity(2))
    with pytest.raises(ShapeError):
        ad.scatter_add(val([[1.0], [1.0]]), Segments([0, 1, 1]), 2, identity(2))
    with pytest.raises(ShapeError):
        ad.scatter_add(val([[1.0], [1.0]]), [[0], [1]], 2, identity(2))


def _check_segment_sum(index, num_rows, width, seed):
    """Plan-based sums (scatter_add forward, gather backward) against np.add.at."""
    values = np.random.default_rng(seed).normal(size=(len(index), width))
    expected = np.zeros((num_rows, width))
    np.add.at(expected, np.asarray(index, dtype=np.int64), values)
    for dst in (index, Segments(index)):
        out = ad.scatter_add(Value(values), dst, num_rows, identity(len(index)))
        assert np.allclose(out.data, expected, rtol=1e-6)
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
        out = ad.scatter_add(Value(messages), dst, n, identity(e))
        expected = np.zeros((n, d))
        for row, target in enumerate(dst):  # grouping oracle
            expected[target] += messages[row]
        assert np.allclose(out.data, expected, atol=1e-12)


def test_scatter_add_gradient(rng):
    messages = Value(rng.normal(size=(6, 3)))
    w = Value(rng.normal(size=(3, 1)))
    for dst in ([0, 1, 1, 2, 0, 2], Segments([0, 1, 1, 2, 0, 2])):
        fd_check(lambda: ad.total_sum(ad.matmul(
            ad.scatter_add(messages, dst, 4, identity(6)), w)),
                 {"messages": messages, "w": w})


def test_scatter_add_fan_hand_value():
    # Message 0 fans out to rows 0 and 2, message 1 to row 0 twice.
    messages = val([[1.0, 2.0], [10.0, 20.0]])
    out = ad.scatter_add(messages, [0, 0, 0, 2], 3, rows=Segments([0, 1, 1, 0]))
    assert out.data.tolist() == [[21.0, 42.0], [0.0, 0.0], [1.0, 2.0]]
    backward(ad.total_sum(ad.mul(out, val([[1.0, 1.0], [5.0, 5.0], [3.0, 3.0]]))))
    assert messages.grad.tolist() == [[4.0, 4.0], [2.0, 2.0]]


def test_scatter_add_empty_fan():
    messages = Value(np.ones((3, 2)))
    out = ad.scatter_add(messages, Segments([]), 4, rows=Segments([]))
    assert out.data.shape == (4, 2) and (out.data == 0).all()
    backward(ad.total_sum(out))
    assert (messages.grad == 0).all()


def test_scatter_add_fan_errors():
    with pytest.raises(IndexError):
        ad.scatter_add(val([[1.0], [1.0]]), [0, 1], 2, rows=Segments([0, 2]))
    with pytest.raises(IndexError):
        ad.scatter_add(val([[1.0], [1.0]]), [0, 1], 2, rows=Segments([-1, 0]))
    with pytest.raises(ShapeError):
        ad.scatter_add(val([[1.0], [1.0]]), [0, 1, 1], 2, rows=Segments([0, 1]))


def test_scatter_add_fan_gradient(rng):
    messages = Value(rng.normal(size=(4, 3)))
    w = Value(rng.normal(size=(3, 1)))
    dst, rows = [0, 0, 1, 2, 2, 2, 4], [3, 0, 0, 1, 3, 3, 2]
    for plan in (dst, Segments(dst)):
        fd_check(lambda: ad.total_sum(ad.matmul(
            ad.scatter_add(messages, plan, 5, rows=Segments(rows)), w)),
            {"messages": messages, "w": w})
    out = ad.scatter_add(messages, dst, 5, rows=Segments(rows))
    expected = np.zeros((5, 3))
    np.add.at(expected, dst, messages.data[rows])
    assert np.allclose(out.data, expected, atol=1e-12)


@pytest.mark.parametrize("fan", [False, True])
def test_scatter_add_blocks_sum_their_own_rows_without_zeroed_cells(rng, fan):
    # Two blocks of messages into two blocks of 4 rows; entry 1 of block 0
    # and entry 3 of block 1 are left out of both the sum and the gradient.
    dst = [2, 0, 2, 3, 0]
    rows = Segments([1, 0, 1, 2, 2]) if fan else identity(5)
    per_block = 3 if fan else 5
    messages = Value(rng.normal(size=(2 * per_block, 2)))
    zeroed = (np.array([1, 3]), np.array([0, 1]))
    out = ad.scatter_add(messages, dst, 8, rows, blocks=2, zeroed=zeroed)
    expected = np.zeros((8, 2))
    for q in range(2):
        for e, d in enumerate(dst):
            if (e, q) not in {(1, 0), (3, 1)}:
                read = rows.index[e]
                expected[4 * q + d] += messages.data[q * per_block + read]
    assert np.allclose(out.data, expected, atol=1e-12)
    w = Value(rng.normal(size=(2, 1)))
    fd_check(lambda: ad.total_sum(ad.matmul(
        ad.scatter_add(messages, dst, 8, rows, blocks=2, zeroed=zeroed), w)),
        {"messages": messages})
    with pytest.raises(ShapeError):
        ad.scatter_add(messages, dst, 7, rows, blocks=2)


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


def _gather_gather_mul(x, src, gates, gate, blocks, stride):
    """The oracle of :func:`gated_gather`: the composition it replaced."""
    return ad.mul(ad.gather(x, src, blocks), ad.gather(gates, gate, blocks, stride))


@pytest.mark.parametrize("blocks,shared", [(1, True), (3, True), (3, False)])
@pytest.mark.parametrize("tracked", ["both", "x", "gates"])
def test_gated_gather_equals_gather_gather_mul_bit_for_bit(blocks, shared, tracked):
    rng = np.random.default_rng(blocks)
    nodes, kinds, pairs, width = 5, 3, 9, 4
    src = Segments(rng.integers(0, nodes, size=pairs))
    gate = Segments(rng.integers(0, kinds, size=pairs))
    stride = 0 if shared else kinds
    x_data = rng.normal(size=(blocks * nodes, width)).astype(np.float32)
    gate_data = rng.normal(size=((1 if shared else blocks) * kinds, width)).astype(np.float32)
    weights = rng.normal(size=(blocks * pairs, width)).astype(np.float32)
    results = []
    for op in (ad.gated_gather, _gather_gather_mul):
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
    blocks, nodes, kinds, width = 2, 4, 3, 3
    src = Segments([0, 1, 1, 3, 2, 0])
    gate = Segments([2, 0, 1, 1, 0, 2])
    x = val(rng.normal(size=(blocks * nodes, width)))
    gates = val(rng.normal(size=((1 if shared else blocks) * kinds, width)))
    w = val(rng.normal(size=(width, 1)))
    fd_check(lambda: ad.total_sum(ad.matmul(ad.gated_gather(
        x, src, gates, gate, blocks, 0 if shared else kinds), w)), {"x": x, "gates": gates})
    with pytest.raises(ShapeError):
        ad.gated_gather(x, src, gates, Segments([0, 1]), blocks, kinds)


def test_take_and_sum_columns_are_adjoint(rng):
    x = Value(rng.normal(size=(3, 4)))
    cols = np.array([[0, 3, 3, 4, 1], [2, 2, 2, 2, 2], [4, 4, 0, 1, 3]])
    picked = ad.take_columns(x, cols, fill=-np.inf)
    assert picked.data[0].tolist() == [x.data[0, 0], x.data[0, 3], x.data[0, 3],
                                       -np.inf, x.data[0, 1]]
    y = Value(rng.normal(size=(3, 5)))
    sums = ad.sum_columns(y, cols, 4)
    expected = np.zeros((3, 4))
    for r in range(3):
        for c in range(5):
            if cols[r, c] < 4:
                expected[r, cols[r, c]] += y.data[r, c]
    assert np.allclose(sums.data, expected, atol=1e-12)
    w = Value(rng.normal(size=(5, 2)))
    fd_check(lambda: ad.total_sum(ad.matmul(ad.take_columns(x, cols), w)), {"x": x, "w": w})
    v = Value(rng.normal(size=(4, 2)))
    fd_check(lambda: ad.total_sum(ad.matmul(ad.sum_columns(y, cols, 4), v)),
             {"y": y, "v": v})
    with pytest.raises(IndexError):
        ad.take_columns(x, cols + 1)
    with pytest.raises(ShapeError):
        ad.sum_columns(x, cols, 4)


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


def test_transpose_gradient(rng):
    x = Value(rng.normal(size=(2, 5)))
    w = Value(rng.normal(size=(2, 1)))
    fd_check(lambda: ad.total_sum(ad.matmul(ad.transpose(x), w)), {"x": x, "w": w})


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
        loss = ad.total_sum(ad.relu(ad.matmul(x, w)))
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
    "concat_rows": (lambda a, b, c: ad.concat([a, b, c], axis=0), [(2, 3), (4, 3), (1, 3)]),
    "concat_columns": (lambda a, b: ad.concat([a, b], axis=1), [(2, 3), (2, 1)]),
    "layer_norm": (ad.layer_norm, [(4, 6), (1, 6), (1, 6)]),
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
    cols = np.array([[0, 4, 1, 1], [2, 2, 3, 0], [4, 4, 4, 4], [3, 2, 1, 0]])
    outs = [ad.add(x, y), ad.add(x, np.ones((1, 4))), ad.mul(x, row), ad.matmul(x, y),
            ad.transpose(x), ad.relu(x), ad.concat([x, y], axis=0), ad.rowwise_softmax(x),
            ad.layer_norm(x, row, row), ad.gather(x, [0, 2, 2]),
            ad.scatter_add(x, [1, 0, 1, 3], 5, identity(4)),
            ad.scatter_add(x, [0, 1, 1], 2, rows=Segments([3, 3, 0])), ad.total_sum(x),
            ad.take_columns(x, cols), ad.sum_columns(x, cols, 4),
            ad.cross_entropy(x, [0, 1, 2, 3])]
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
                     dtype=dtype)
        y = ad.relu(Value(x)).data
        assert np.isnan(y[0, 0]) and y.dtype == dtype
        assert y[:, 1:].tobytes() == np.where(x > 0, x, 0)[:, 1:].astype(dtype).tobytes()


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
                p.grad *= scale
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
            p.grad += g
            q.grad += g
        norm = clip_global_norm(store, max_norm)
        assert norm == oracle.clip_global_norm(max_norm)
        assert (norm > max_norm) == (max_norm == 0.5)
        opt.step()
        oracle.step()
        for p, q in zip(store.values(), oracle.params):
            assert p.grad.tobytes() == q.grad.tobytes()
            assert p.data.dtype == dtype and p.data.tobytes() == q.data.tobytes()
    assert all(np.shares_memory(p.data, store.data) for p in store.values())


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
    grad = finite_difference(lambda: ad.total_sum(ad.mul(ad.relu(x), ad.relu(x))), x)
    assert np.isnan(grad[0, 0])
    assert np.allclose(grad[0, 1:], [1.0, 0.0], atol=1e-8)
    report = check_gradients(lambda: ad.total_sum(ad.mul(ad.relu(x), ad.relu(x))), {"x": x})
    assert report.skipped == 1 and report.entries == 3 and max(report.values()) <= 1e-6
