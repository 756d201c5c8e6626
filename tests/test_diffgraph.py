import tracemalloc

import numpy as np
import pytest

from longisurv import diffgraph as dg
from longisurv.encoders import encode_images
from longisurv.errors import ShapeError


def check_grads(build, params, tol=1e-6, seed=0, n_coords=25):
    """Gradient-check a scalar-valued builder over a dict of parameter arrays."""

    def f(p):
        leaves = {k: dg.param(v, k) for k, v in p.items()}
        return build(leaves), leaves

    err = dg.grad_check(f, params, seed=seed, n_coords=n_coords)
    assert err < tol, f"max relative gradient error {err:.3e} >= {tol}"


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        assert dg.sigmoid(dg.constant(np.array(0.0))).value == pytest.approx(0.5)

    def test_masked_softmax_excludes_masked(self):
        scores = dg.constant(np.zeros((1, 2)))
        mask = np.array([[True, False]])
        out = dg.masked_softmax(scores, mask).value
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_masked_softmax_fully_masked_row_is_zero(self):
        rng = np.random.default_rng(10)
        scores = dg.constant(rng.normal(size=(2, 3)))
        mask = np.array([[True, True, False],
                         [False] * 3])
        out = dg.masked_softmax(scores, mask).value
        assert out[0].sum() == pytest.approx(1.0)
        np.testing.assert_array_equal(out[1], 0.0)

    def test_layernorm_constant_row_gives_beta(self):
        x = dg.constant(np.full((3, 5), 2.7))
        gamma = dg.param(np.full(5, 1.3), "g")
        beta = dg.param(np.arange(5.0), "b")
        out = dg.layer_norm(x, gamma, beta).value
        np.testing.assert_allclose(out, np.tile(np.arange(5.0), (3, 1)), atol=1e-10)

    def test_dropout_eval_is_identity(self):
        rng = np.random.default_rng(11)
        x = dg.constant(rng.normal(size=(4, 4)))
        out = dg.dropout(x, 0.25, np.random.default_rng(0), train=False)
        assert out is x

    def test_dropout_train_scales_kept_units(self):
        x = dg.constant(np.ones((1000,)))
        out = dg.dropout(x, 0.25, np.random.default_rng(7), train=True).value
        kept = out > 0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75)
        assert 0.6 < kept.mean() < 0.9


class TestBackwardBasics:
    def test_square_adjoint(self):
        x = dg.param(np.array(3.0), "x")
        dg.backward(dg.mul(x, x))
        assert x.adjoint == pytest.approx(6.0)

    def test_sigmoid_adjoint_at_zero(self):
        x = dg.param(np.array(0.0), "x")
        dg.backward(dg.sigmoid(x))
        assert x.adjoint == pytest.approx(0.25)

    def test_non_scalar_loss_rejected(self):
        x = dg.param(np.ones(3), "x")
        with pytest.raises(ShapeError):
            dg.backward(dg.relu(x))

    def test_shape_mismatch_names_op(self):
        a = dg.constant(np.ones((2, 3)))
        b = dg.constant(np.ones((4, 2)))
        with pytest.raises(ShapeError, match="matmul"):
            dg.matmul(a, b)
        with pytest.raises(ShapeError, match="add"):
            dg.add(dg.constant(np.ones((2, 3))), dg.constant(np.ones((4,))))
        with pytest.raises(ShapeError, match="mul"):
            dg.mul(dg.constant(np.ones((2, 3))), dg.constant(np.ones((4,))))
        with pytest.raises(ShapeError, match="masked_softmax"):
            dg.masked_softmax(dg.constant(np.ones((2, 3, 3))), np.ones((4, 3), dtype=bool))

    def test_fanout_accumulates(self):
        x = dg.param(np.array(2.0), "x")
        y = dg.add(dg.mul(x, x), dg.scale(x, 3.0))   # x^2 + 3x
        dg.backward(y)
        assert x.adjoint == pytest.approx(7.0)

    @pytest.mark.parametrize("view", ["add", "reshape", "transpose"])
    def test_first_adjoint_may_alias_and_is_never_written(self, view):
        # the first contributions to x and z are one array (add), or x's is a
        # view of z's (reshape, transpose); x's second contribution must not
        # be added into that shared memory
        x = dg.param(np.arange(6.0).reshape(2, 3), "x")
        c2 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        c1 = np.array([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
        a = dg.mul(x, dg.constant(c2))        # created first, so it runs last
        if view == "add":
            y, c1 = x, c1.reshape(2, 3)
            c1_as_x = c1
        elif view == "reshape":
            y, c1_as_x = dg.reshape(x, (3, 2)), c1.reshape(2, 3)
        else:
            y, c1_as_x = dg.transpose(x, (1, 0)), c1.T
        z = dg.param(np.ones(y.shape), "z")
        b = dg.mul(dg.add(y, z), dg.constant(c1))
        dg.backward(dg.add(dg.sum_all(b), dg.sum_all(a)))
        np.testing.assert_array_equal(z.adjoint, c1)
        np.testing.assert_array_equal(x.adjoint, c1_as_x + c2)

    def test_only_leaves_keep_adjoints(self):
        rng = np.random.default_rng(4)
        x = dg.constant(rng.normal(size=(2, 1, 4, 4)))
        w, b = dg.param(rng.normal(size=(3, 1, 3, 3)), "w"), dg.param(np.zeros(3), "b")
        v = dg.param(rng.normal(size=(12, 1)), "v")
        h = dg.reshape(dg.avg_pool2(dg.relu(dg.conv2d(x, w, b))), (2, 12))
        loss = dg.sum_all(dg.log(dg.sigmoid(dg.add(dg.matmul(h, v), dg.matmul(h, v)))))
        dg.backward(loss)
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            nodes[id(node)] = node
            stack.extend(p for p, _ in node._vjps if id(p) not in nodes)
        leaves = [n for n in nodes.values() if not n._vjps]
        interior = [n for n in nodes.values() if n._vjps]
        assert {n.op for n in leaves} == {"w", "b", "v", "const"} and len(interior) == 10
        assert all((n.adjoint is not None) == n.needs_grad for n in leaves)
        assert all(n.adjoint is None for n in interior)

    def test_masked_softmax_adjoint_exactly_zero_at_masked(self):
        rng = np.random.default_rng(12)
        x = dg.param(rng.normal(size=(2, 4)), "x")
        mask = np.array([[True, True, False, True],
                         [False] * 4])
        out = dg.masked_softmax(x, mask)
        dg.backward(dg.sum_all(dg.mul(out, dg.constant(rng.normal(size=(2, 4))))))
        assert x.adjoint[0, 2] == 0.0
        np.testing.assert_array_equal(x.adjoint[1], 0.0)


class TestGradChecks:
    def test_linear_map_is_exact(self):
        rng = np.random.default_rng(13)
        params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        x = rng.normal(size=(5, 4))

        def build(lv):
            return dg.sum_all(dg.matmul(dg.constant(x), lv["w"]) + lv["b"])

        def f(p):
            leaves = {k: dg.param(v, k) for k, v in p.items()}
            return build(leaves), leaves

        assert dg.grad_check(f, params, n_coords=15) < 1e-9

    def test_two_layer_network_with_sigmoid_head(self):
        # its own generator, so the point is the same wherever the test runs.
        # The check holds only away from relu's kink, and only where every
        # nonzero gradient is large enough that the central difference's
        # rounding error (about 4e-11 here) stays under tol times it
        rng = np.random.default_rng(2)
        params = {"w1": rng.normal(size=(6, 8)), "b1": rng.normal(size=8),
                  "w2": rng.normal(size=(8, 1)), "b2": rng.normal(size=1)}
        x = rng.normal(size=(7, 6))
        assert np.abs(x @ params["w1"] + params["b1"]).min() >= 1e-3

        def build(lv):
            h = dg.relu(dg.matmul(dg.constant(x), lv["w1"]) + lv["b1"])
            return dg.sum_all(dg.sigmoid(dg.matmul(h, lv["w2"]) + lv["b2"]))

        leaves = {k: dg.param(v, k) for k, v in params.items()}
        grads = np.concatenate([g.ravel() for g in dg.gradients(build(leaves), leaves).values()])
        assert np.abs(grads[grads != 0.0]).min() >= 1e-4
        check_grads(build, params, tol=1e-6)

    def test_mul_broadcast(self):
        rng = np.random.default_rng(14)
        params = {"a": rng.normal(size=(3, 1, 5)), "b": rng.normal(size=(4, 5))}
        check_grads(lambda lv: dg.sum_all(dg.mul(lv["a"], lv["b"])), params)

    def test_batched_matmul(self):
        rng = np.random.default_rng(15)
        params = {"a": rng.normal(size=(2, 3, 4, 5)), "b": rng.normal(size=(5, 6))}
        check_grads(lambda lv: dg.sum_all(dg.matmul(lv["a"], lv["b"])), params)

    def test_log_clamped(self):
        rng = np.random.default_rng(16)
        params = {"x": rng.uniform(0.1, 2.0, size=(4, 4))}
        check_grads(lambda lv: dg.sum_all(dg.log(lv["x"])), params)

    def test_masked_softmax_grad(self):
        rng = np.random.default_rng(17)
        mask = np.tril(np.ones((5, 5), dtype=bool))
        w = rng.normal(size=(5, 5))
        params = {"x": rng.normal(size=(5, 5))}
        check_grads(lambda lv: dg.sum_all(
            dg.mul(dg.masked_softmax(lv["x"], mask), dg.constant(w))), params)

    def test_layer_norm_grad(self):
        rng = np.random.default_rng(18)
        params = {"x": rng.normal(size=(6, 9)),
                  "g": rng.uniform(0.5, 1.5, size=9),
                  "b": rng.normal(size=9)}
        w = rng.normal(size=(6, 9))
        check_grads(lambda lv: dg.sum_all(
            dg.mul(dg.layer_norm(lv["x"], lv["g"], lv["b"]), dg.constant(w))),
            params, tol=5e-6)

    def test_conv2d_grad(self):
        rng = np.random.default_rng(19)
        params = {"x": rng.normal(size=(2, 3, 8, 8)),
                  "w": rng.normal(size=(4, 3, 3, 3)),
                  "b": rng.normal(size=4)}
        m = rng.normal(size=(2, 4, 8, 8))
        check_grads(lambda lv: dg.sum_all(
            dg.mul(dg.conv2d(lv["x"], lv["w"], lv["b"]), dg.constant(m))),
            params, n_coords=40)

    def test_avg_pool_grad(self):
        rng = np.random.default_rng(20)
        # rectify-and-pool: inputs of both signs, away from relu's kink
        params = {"x": rng.uniform(0.2, 1.0, size=(2, 3, 6, 6))
                  * rng.choice([-1, 1], (2, 3, 6, 6))}
        m = rng.normal(size=(2, 3, 3, 3))
        check_grads(lambda lv: dg.sum_all(
            dg.mul(dg.avg_pool2(lv["x"]), dg.constant(m))), params)

    def test_gather_scatter_grad(self):
        rng = np.random.default_rng(21)
        params = {"x": rng.normal(size=(6, 4))}
        idx = np.array([0, 2, 5])
        m = rng.normal(size=(3, 4))
        m2 = rng.normal(size=(9, 4))
        check_grads(lambda lv: dg.sum_all(
            dg.mul(dg.gather_rows(lv["x"], idx), dg.constant(m))), params)
        check_grads(lambda lv: dg.sum_all(
            dg.mul(dg.scatter_rows(lv["x"], np.arange(6) + 2, 9), dg.constant(m2))),
            params)

    def test_dropout_grad_with_pinned_seed(self):
        rng = np.random.default_rng(22)
        params = {"x": rng.normal(size=(5, 5))}

        def build(lv):
            rng = np.random.default_rng(11)
            return dg.sum_all(dg.dropout(lv["x"], 0.4, rng, train=True))

        check_grads(build, params)

    def test_relu_grad_away_from_kink(self):
        rng = np.random.default_rng(23)
        params = {"x": rng.uniform(0.2, 1.0, size=(4, 4)) * rng.choice([-1, 1], (4, 4))}
        check_grads(lambda lv: dg.sum_all(dg.relu(lv["x"])), params)

    def test_transpose_reshape_grad(self):
        rng = np.random.default_rng(24)
        params = {"x": rng.normal(size=(2, 3, 4))}
        m = rng.normal(size=(4, 6))
        check_grads(lambda lv: dg.sum_all(
            dg.mul(dg.reshape(dg.transpose(lv["x"], (2, 0, 1)), (4, 6)),
                   dg.constant(m))), params)


class TestDeterminism:
    def test_identical_seeds_bitwise_identical_adjoints(self):
        rng = np.random.default_rng(25)
        params = {"w": rng.normal(size=(10, 6)), "b": rng.normal(size=6)}
        x = rng.normal(size=(8, 10))

        def run():
            leaves = {k: dg.param(v, k) for k, v in params.items()}
            rng = np.random.default_rng(np.random.SeedSequence(99))
            h = dg.dropout(dg.matmul(dg.constant(x), leaves["w"]) + leaves["b"],
                           0.3, rng, train=True)
            dg.backward(dg.sum_all(dg.sigmoid(h)))
            return {k: leaves[k].adjoint.copy() for k in leaves}

        g1, g2 = run(), run()
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])


class TestL2Normalize:
    def test_rows_get_unit_length_and_zero_rows_stay_zero(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = dg.l2_normalize(dg.constant(x), 1e-12).value
        np.testing.assert_allclose(out, [[0.6, 0.8], [0.0, 0.0]], rtol=1e-15)

    def test_grad(self):
        rng = np.random.default_rng(26)
        params = {"x": rng.normal(size=(2, 4, 7))}
        w = rng.normal(size=(2, 4, 7))
        check_grads(lambda lv: dg.sum_all(
            dg.mul(dg.l2_normalize(lv["x"], 1e-12), dg.constant(w))), params)

    def test_grad_below_floor_is_plain_division(self):
        x = dg.param(np.array([[1e-14, -2e-14]]), "x")
        dg.backward(dg.sum_all(dg.l2_normalize(x, 1e-12)))
        np.testing.assert_array_equal(x.adjoint, [[1e12, 1e12]])


# ---------------------------------------------------------------------------
# channels-last image primitives against the NCHW forms they replaced
# ---------------------------------------------------------------------------

def _ref_im2col(x, kh, kw, pad):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    oh, ow = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def _ref_conv2d(x, w, b, g, pad=1):
    """NCHW im2col conv: forward value and the adjoints of x, w and b."""
    n, c = x.shape[:2]
    f, _, kh, kw = w.shape
    cols, oh, ow = _ref_im2col(x, kh, kw, pad)
    out = np.ascontiguousarray(
        (cols @ w.reshape(f, -1).T + b).reshape(n, oh, ow, f).transpose(0, 3, 1, 2))
    g = np.ascontiguousarray(g)
    wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    gcols, gh, gw = _ref_im2col(g, kh, kw, kh - 1 - pad)
    dx = (gcols @ wflip.reshape(c, -1).T).reshape(n, gh, gw, c).transpose(0, 3, 1, 2)
    return out, dx, _ref_weight_adjoint(cols, g, w.shape), g.sum(axis=(0, 2, 3))


def _ref_weight_adjoint(cols, g, w_shape):
    """The one-GEMM weight adjoint of ``_ref_im2col``'s rows and an NCHW g."""
    g = np.ascontiguousarray(g)
    return (cols.T @ g.transpose(0, 2, 3, 1).reshape(-1, w_shape[0])).T.reshape(w_shape)


def _ref_avg_pool2(x, g):
    n, c, h, w = x.shape
    # NCHW memory: on a channels-last view the reshape is a view too, and
    # mean then sums in another order
    out = np.ascontiguousarray(x).reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    return out, np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25


def _channels_last(a):
    """The same values as ``a``, in NHWC memory viewed as NCHW."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


LAYOUTS = {"nchw": np.ascontiguousarray, "channels_last": _channels_last}


class TestChannelsLastIsByteIdentical:
    """conv2d, avg_pool2 and relu give the NCHW forms' bytes in any layout.

    Adjoints are float64 on float32 values, as in training. The bias
    adjoint sums in memory order, not the reference's pairwise NCHW order,
    so it rounds differently; it is pinned at 1e-13 of the summed
    magnitudes, near float64 resolution and far below float32's, which the
    optimizer keeps. ``test_bias_adjoint_sums_the_pooled_adjoint_in_reduction_order``
    pins its bytes on the layout training hands it.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 8, 16])
    @pytest.mark.parametrize("x_layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("g_layout", sorted(LAYOUTS))
    def test_conv2d(self, dtype, c, x_layout, g_layout):
        self._check_conv2d(dtype, c, x_layout, g_layout, n=5, pad=1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 8, 16])
    @pytest.mark.parametrize("x_layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("g_layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("pad", [0, 2])
    def test_conv2d_other_pads(self, dtype, c, x_layout, g_layout, pad):
        # vjp_x pads g by kh - 1 - pad, so by 2 and 0 here; 37 images is
        # more than two 16-image blocks, should vjp_x ever be blocked
        self._check_conv2d(dtype, c, x_layout, g_layout, n=37, pad=pad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f", [2, 4])
    @pytest.mark.parametrize("x_layout", sorted(LAYOUTS))
    def test_conv2d_few_filters(self, dtype, f, x_layout):
        # with at most 4 filters the weight adjoint's bytes depend on its
        # row operand's memory order, so this pins both of vjp_w's operands
        self._check_conv2d(dtype, 8, x_layout, "nchw", n=5, pad=1, f=f)

    @staticmethod
    def _check_conv2d(dtype, c, x_layout, g_layout, n, pad, f=8):
        rng = np.random.default_rng(c)
        xv = rng.normal(size=(n, c, 12, 10)).astype(dtype)
        wv = rng.normal(size=(f, c, 3, 3)).astype(dtype)
        bv = rng.normal(size=f).astype(dtype)
        gv = rng.normal(size=(n, f, 10 + 2 * pad, 8 + 2 * pad))
        want = _ref_conv2d(xv, wv, bv, gv, pad)
        x, w, b = (dg.param(LAYOUTS[x_layout](xv), "x"), dg.param(wv, "w"),
                   dg.param(bv, "b"))
        out = dg.conv2d(x, w, b, pad)
        _same_bytes(out.value, want[0])
        dg.backward(dg.sum_all(dg.mul(out, dg.constant(LAYOUTS[g_layout](gv)))))
        _same_bytes(x.adjoint, want[1])
        _same_bytes(w.adjoint, want[2])
        assert b.adjoint.dtype == want[3].dtype
        assert np.all(np.abs(b.adjoint - want[3])
                      <= 1e-13 * np.abs(gv).sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize("n, c, f, side, dtype", [
        (17, 16, 32, 8, np.float64),     # the encoder's third layer, float64
        (672, 3, 5, 6, np.float32),      # three input channels, float32
    ])
    def test_conv2d_input_adjoint_is_one_gemm(self, n, c, f, side, dtype):
        # with OpenBLAS 0.3.31's SkylakeX kernels these shapes round
        # differently when the input adjoint's GEMM runs 16 images at a time
        rng = np.random.default_rng(n)
        xv = rng.normal(size=(n, c, side, side)).astype(dtype)
        wv = rng.normal(size=(f, c, 3, 3)).astype(dtype)
        gv = rng.normal(size=(n, f, side, side))
        want = _ref_conv2d(xv, wv, np.zeros(f, dtype), gv)
        x = dg.param(_channels_last(xv), "x")
        out = dg.conv2d(x, dg.constant(wv), dg.constant(np.zeros(f, dtype)))
        dg.backward(dg.sum_all(dg.mul(out, dg.constant(_channels_last(gv)))))
        _same_bytes(x.adjoint, want[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 8, 16])
    @pytest.mark.parametrize("x_layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("g_layout", sorted(LAYOUTS))
    def test_avg_pool2(self, dtype, c, x_layout, g_layout):
        # avg_pool2 rectifies, then pools: the relu-then-pool reference's bytes
        rng = np.random.default_rng(c)
        # magnitudes over six decades, so any other summation order shows,
        # and exact zeros of both signs, where the mask is False
        xv = (rng.normal(size=(7, c, 16, 12))
              * 10.0 ** rng.uniform(-3, 3, size=(7, c, 16, 12))).astype(dtype)
        xv[rng.random(xv.shape) < 0.1] = 0.0
        xv[rng.random(xv.shape) < 0.1] = -0.0
        gv = rng.normal(size=(7, c, 8, 6))
        want_out, want_dx = _ref_avg_pool2(np.maximum(xv, 0), gv)
        want_dx = want_dx * (xv > 0)
        x = dg.param(LAYOUTS[x_layout](xv), "x")
        out = dg.avg_pool2(x)
        _same_bytes(out.value, want_out)
        dg.backward(dg.sum_all(dg.mul(out, dg.constant(LAYOUTS[g_layout](gv)))))
        _same_bytes(x.adjoint, want_dx)
        assert x.adjoint.transpose(0, 2, 3, 1).flags.c_contiguous

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_layout", sorted(LAYOUTS))
    def test_relu(self, dtype, x_layout):
        xv = np.random.default_rng(3).normal(size=(4, 8, 6, 6)).astype(dtype)
        _same_bytes(dg.relu(dg.constant(LAYOUTS[x_layout](xv))).value,
                    np.where(xv > 0, xv, 0.0))

    def test_encoder_stack_keeps_channels_last_memory(self):
        rng = np.random.default_rng(5)
        x = dg.constant(rng.normal(size=(3, 1, 8, 8)).astype(np.float32))
        w = dg.param(rng.normal(size=(8, 1, 3, 3)).astype(np.float32), "w")
        b = dg.param(np.zeros(8, np.float32), "b")
        pooled = dg.avg_pool2(dg.conv2d(x, w, b))
        assert pooled.value.transpose(0, 2, 3, 1).flags.c_contiguous


class TestBlockedInputAdjoint:
    """conv2d's input adjoint, gathered and multiplied in image blocks of at
    least ``_BLOCK_BYTES`` of columns, has the one GEMM's bytes:
    channels-last float32 values under a float64 adjoint, as in training."""

    @pytest.mark.parametrize("n, c, f, side, blocks", [
        (121, 8, 16, 16, [61, 60]),              # the encoder's second layer (b1)
        (241, 8, 16, 16, [61, 60, 60, 60]),
        (241, 16, 32, 8, [121, 120]),            # its third layer (b2)
        (2601, 3, 5, 6, [1301, 1300]),           # three input channels
        (1, 2, 16, 192, [1]),                    # 42 MB of one image's columns
        (5610, 1, 3, 6, [5610]),                 # one channel: a matrix-vector product
    ])
    def test_blocks_give_the_one_gemm_bytes(self, monkeypatch, n, c, f, side, blocks):
        rng = np.random.default_rng(n + c)
        xv = rng.normal(size=(n, c, side, side)).astype(np.float32)
        wv = rng.normal(size=(f, c, 3, 3)).astype(np.float32)
        gv = rng.normal(size=(n, f, side, side))
        want = _ref_conv2d(xv, wv, np.zeros(f, np.float32), gv)
        x = dg.param(_channels_last(xv), "x")
        out = dg.conv2d(x, dg.constant(wv), dg.constant(np.zeros(f, np.float32)))
        gathered, im2col = [], dg._im2col
        monkeypatch.setattr(dg, "_im2col", lambda a, *rest: gathered.append(len(a)) or im2col(a, *rest))
        dg.backward(dg.sum_all(dg.mul(out, dg.constant(_channels_last(gv)))))
        assert gathered == blocks
        assert min(blocks) * side * side * f * 3 * 3 * 8 >= dg._BLOCK_BYTES * (c > 1)
        _same_bytes(x.adjoint, want[1])


def _gemm_row_counts(monkeypatch):
    """Record the output rows of each ``np.matmul(..., out=)`` call from now on."""
    rows, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, out: rows.append(len(out)) or matmul(a, b, out=out))
    return rows


class TestBlockedWeightAdjoint:
    """conv2d's weight adjoint, multiplied in blocks of (channel, kernel-row)
    groups of about ``_BLOCK_BYTES`` of rows or more, has the one GEMM's
    bytes: each output row's sum over the images stays in one call. A
    one-filter adjoint is a matrix-vector product and stays one call, and so
    does one whose sums' length is not a multiple of 32: at two BLAS threads
    a 9-row block of the 302,940-long case ran serially, the 18-row whole
    threaded, and they rounded differently."""

    @pytest.mark.parametrize("n, c, f, side, x_dtype, g_dtype, rows", [
        (672, 1, 8, 32, np.float32, np.float64, [6, 3]),        # the encoder's b0
        (672, 8, 16, 16, np.float32, np.float64, [15] * 4 + [12]),  # b1
        (672, 16, 32, 8, np.float32, np.float64, [72, 72]),     # b2
        (672, 8, 16, 16, np.float64, np.float64, [15] * 4 + [12]),  # b1, float64 throughout
        (672, 8, 16, 16, np.float32, np.float32, [36, 36]),     # b1, float32 throughout
        (672, 8, 4, 16, np.float32, np.float64, [15] * 4 + [12]),   # four filters
        (672, 8, 2, 16, np.float32, np.float32, [36, 36]),      # two filters, transposed gather
        (500, 8, 1, 16, np.float32, np.float64, [72]),          # one filter: one call
        (8416, 2, 2, 6, np.float32, np.float64, [9, 9]),        # sums of 302,976 = 32 * 9,468
        (8415, 2, 2, 6, np.float32, np.float64, [18]),          # 302,940: one call
    ])
    def test_blocks_give_the_one_gemm_bytes(self, monkeypatch, n, c, f, side, x_dtype,
                                            g_dtype, rows):
        rng = np.random.default_rng(n + c + f)
        xv = rng.normal(size=(n, c, side, side)).astype(x_dtype)
        wv = rng.normal(size=(f, c, 3, 3)).astype(x_dtype)
        gv = rng.normal(size=(n, f, side, side)).astype(g_dtype)
        want = _ref_weight_adjoint(_ref_im2col(xv, 3, 3, 1)[0], gv, wv.shape)
        w = dg.param(wv, "w")
        out = dg.conv2d(dg.constant(_channels_last(xv)), w, dg.constant(np.zeros(f, x_dtype)))
        gemms = _gemm_row_counts(monkeypatch)
        dg.backward(dg.sum_all(dg.mul(out, dg.constant(_channels_last(gv)))))
        assert gemms == rows
        _same_bytes(w.adjoint, want)


def test_blocked_forward_gives_the_one_gemm_bytes(monkeypatch):
    # b1 at the baseline's 672 images: 49.5 MB of float32 rows, two image blocks
    rng = np.random.default_rng(16)
    xv = rng.normal(size=(672, 8, 16, 16)).astype(np.float32)
    wv = rng.normal(size=(16, 8, 3, 3)).astype(np.float32)
    bv = rng.normal(size=16).astype(np.float32)
    cols = _ref_im2col(xv, 3, 3, 1)[0]
    want = np.ascontiguousarray((cols @ wv.reshape(16, -1).T + bv)
                                .reshape(672, 16, 16, 16).transpose(0, 3, 1, 2))
    gemms = _gemm_row_counts(monkeypatch)
    out = dg.conv2d(dg.constant(_channels_last(xv)), dg.constant(wv), dg.constant(bv))
    assert gemms == [336 * 16 * 16] * 2
    _same_bytes(out.value, want)


def test_gemm_rows_of_a_672_image_encoder_pass_stay_within_one_block(monkeypatch):
    # the baseline's 672-image batch through the encoder's three layers,
    # float32 under a float64 adjoint. One GEMM per product would leave 99 MB
    # of rows (b1's weight adjoint); a block of the rule is under
    # 2 * _BLOCK_BYTES plus one row group, here b0's two-group block
    monkeypatch.setattr(dg, "_rows_buffer", np.empty(0, np.uint8))
    rng = np.random.default_rng(672)
    x = dg.constant(_channels_last(rng.normal(size=(672, 1, 32, 32)).astype(np.float32)))
    for c, f in [(1, 8), (8, 16), (16, 32)]:
        w = dg.param(rng.normal(size=(f, c, 3, 3)).astype(np.float32), "w")
        x = dg.avg_pool2(dg.conv2d(x, w, dg.constant(np.zeros(f, np.float32))))
    dg.backward(dg.sum_all(dg.mul(x, dg.constant(_channels_last(rng.normal(size=x.shape))))))
    assert dg._rows_buffer.nbytes <= 2 * 3 * 672 * 32 * 32 * 8 < 2 * dg._BLOCK_BYTES   # 33.0 MB


def test_conv2d_keeps_no_gemm_rows_past_its_forward():
    rng = np.random.default_rng(0)
    x = dg.constant(rng.normal(size=(64, 8, 16, 16)).astype(np.float32))
    w = dg.param(rng.normal(size=(8, 8, 3, 3)).astype(np.float32), "w")
    b = dg.param(np.zeros(8, np.float32), "b")
    rows_nbytes = 64 * 16 * 16 * 8 * 3 * 3 * 4              # 4.7 MB
    dg.conv2d(x, w, b)      # the first conv of a process may grow the shared rows buffer
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = dg.conv2d(x, w, b)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.value.nbytes <= retained < rows_nbytes


def test_conv2d_adds_its_bias_in_place():
    rng = np.random.default_rng(1)
    x = dg.constant(rng.normal(size=(64, 4, 16, 16)).astype(np.float32))
    w = dg.param(rng.normal(size=(16, 4, 3, 3)).astype(np.float32), "w")
    b = dg.param(rng.normal(size=16).astype(np.float32), "b")
    dg.conv2d(x, w, b)      # the first conv of a process may grow the shared rows buffer
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = dg.conv2d(x, w, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # a separate bias sum would hold the GEMM output and the sum at once
    assert out.value.nbytes <= peak < 2 * out.value.nbytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [17, 190])
@pytest.mark.parametrize("c, f, side", [(1, 8, 32), (8, 16, 16), (16, 32, 8)])
def test_bias_adjoint_sums_the_pooled_adjoint_in_reduction_order(dtype, n, c, f, side):
    # each encoder block's shape; the pooled values are weighted over six
    # decades before the sum, so a sum in any other order rounds differently
    rng = np.random.default_rng(n + f)
    x = dg.constant(rng.normal(size=(n, c, side, side)).astype(dtype))
    w = dg.param(rng.normal(size=(f, c, 3, 3)).astype(dtype), "w")
    b = dg.param(rng.normal(size=f).astype(dtype), "b")
    pooled = dg.avg_pool2(dg.conv2d(x, w, b))
    weights = (rng.normal(size=pooled.shape)
               * 10.0 ** rng.uniform(-3, 3, size=pooled.shape)).astype(dtype)
    dg.backward(dg.sum_all(dg.mul(pooled, dg.constant(weights))))
    g = pooled._vjps[0][1](weights)         # the adjoint avg_pool2 hands conv2d
    assert g.transpose(0, 2, 3, 1).flags.c_contiguous
    _same_bytes(b.adjoint, g.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_has_the_bytes_of_the_three_exp_expression(dtype):
    # the stable branch's exp(-|v|) is evaluated once; the values span the
    # range where exp(v) overflows, signed zeros and infinities
    rng = np.random.default_rng(165)
    v = np.concatenate([rng.normal(scale=10.0, size=50_000),
                        rng.uniform(-1000.0, 1000.0, size=50_000),
                        [0.0, -0.0, np.inf, -np.inf, 88.8, -88.8, 710.0, -710.0]]).astype(dtype)
    want = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                    np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
    _same_bytes(dg.sigmoid(dg.constant(v)).value, want)


def _additive_masked_softmax(scores, mask):
    """The additive form ``masked_softmax`` replaced: an excluded entry adds
    -1e9 to its score and counts as excluded at or below -1e8."""
    additive = np.where(mask, 0.0, -1e9).astype(scores.dtype)
    z = scores + additive
    valid = np.broadcast_to(additive > -1e8, z.shape)
    zmax = np.where(valid, z, -np.inf).max(axis=-1, keepdims=True)
    zmax = np.where(np.isfinite(zmax), zmax, 0.0)
    e = np.where(valid, np.exp(z - zmax), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    return np.where(denom > 0.0, e / np.where(denom > 0.0, denom, 1.0), 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_boolean_mask_gives_the_additive_forms_bytes(dtype):
    # the model's shape: 32 eyes, 4 heads, 21 visits, one causal mask per eye
    # broadcast over the heads. Padded queries are fully excluded rows, and
    # every excluded score lies far above its row's allowed ones
    rng = np.random.default_rng(35)
    lengths = np.concatenate([[1, 21], rng.integers(1, 22, size=30)])
    valid = np.arange(21) < lengths[:, None]
    mask = (np.tril(np.ones((21, 21), dtype=bool))
            & valid[:, None, :] & valid[:, :, None])[:, None]
    raw = rng.normal(size=(32, 4, 21, 21))
    scores = np.where(mask, raw, 30.0 * (np.abs(raw) + 1.0)).astype(dtype)
    assert not mask.any(axis=-1).all()
    node = dg.masked_softmax(dg.param(scores, "s"), mask)
    want = _additive_masked_softmax(scores, mask)
    _same_bytes(node.value, want)
    g = rng.normal(size=scores.shape).astype(dtype)
    _same_bytes(node._vjps[0][1](g), want * (g - (g * want).sum(axis=-1, keepdims=True)))


def test_masked_softmax_refuses_a_float_mask():
    # an additive 0/-1e9 mask read as a boolean one would be inverted
    with pytest.raises(TypeError, match="masked_softmax"):
        dg.masked_softmax(dg.constant(np.zeros((2, 2))), np.array([[0.0, -1e9], [0.0, 0.0]]))


def test_encoder_block_keeps_no_mask_or_rectified_copy():
    # a forward-only encoder block keeps its conv output and its pooled
    # output: one rectify-and-pool node, no relu copy and no mask
    rng = np.random.default_rng(0)
    x = dg.constant(rng.normal(size=(64, 8, 16, 16)).astype(np.float32))
    leaves = {name: dg.param(rng.normal(size=shape).astype(np.float32), name)
              for name, shape in {"enc.conv0.w": (8, 8, 3, 3), "enc.conv0.b": (8,),
                                  "enc.fc.w": (8 * 8 * 8, 2), "enc.fc.b": (2,)}.items()}
    encode_images(x, leaves)                # grows the shared rows buffer first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emb = encode_images(x, leaves)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nodes, stack = {}, [emb]
    while stack:
        node = stack.pop()
        nodes[id(node)] = node
        stack.extend(p for p, _ in node._vjps if id(p) not in nodes)
    interior = [n for n in nodes.values() if n._vjps]
    assert sorted(n.op for n in interior) == ["add", "avg_pool2", "conv2d", "matmul", "reshape"]
    owners = {}
    for n in interior:
        a = n.value
        while a.base is not None:
            a = a.base
        owners[id(a)] = a.nbytes
    kept = sum(owners.values())
    assert kept <= retained < kept + 64 * 8 * 16 * 16        # one bool per conv output


@pytest.mark.parametrize("x_dtype, g_dtype", [(np.float32, np.float32),
                                              (np.float64, np.float64),
                                              (np.float32, np.float64)])
def test_reused_gemm_rows_give_the_reference_bytes(monkeypatch, x_dtype, g_dtype):
    # large, small, then large again: the buffer grows, is reused with stale
    # rows past the small batch's, and is reused again; float32 under a
    # float64 adjoint runs the promoted weight-vjp copy
    monkeypatch.setattr(dg, "_rows_buffer", np.empty(0, np.uint8))
    rng = np.random.default_rng(9)
    wv = rng.normal(size=(8, 4, 3, 3)).astype(x_dtype)
    bv = rng.normal(size=8).astype(x_dtype)
    for n in (24, 3, 24):
        xv = rng.normal(size=(n, 4, 10, 10)).astype(x_dtype)
        gv = rng.normal(size=(n, 8, 10, 10)).astype(g_dtype)
        want = _ref_conv2d(xv, wv, bv, gv)
        x, w, b = dg.param(_channels_last(xv), "x"), dg.param(wv, "w"), dg.param(bv, "b")
        out = dg.conv2d(x, w, b)
        _same_bytes(out.value, want[0])
        dg.backward(dg.sum_all(dg.mul(out, dg.constant(_channels_last(gv)))))
        _same_bytes(x.adjoint, want[1])
        _same_bytes(w.adjoint, want[2])
        assert dg._rows_buffer.nbytes >= 24 * 100 * 36 * np.dtype(g_dtype).itemsize
        for arr in (out.value, x.adjoint, w.adjoint, b.adjoint):
            assert not np.shares_memory(arr, dg._rows_buffer)


class TestIm2col:
    """The gathered GEMM rows are the sliding-window rows, byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 3, 16])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_matches_sliding_windows(self, dtype, c, pad, layout):
        xv = np.random.default_rng(c + pad).normal(size=(4, c, 7, 5)).astype(dtype)
        want = _ref_im2col(xv, 3, 3, pad)
        got = dg._im2col(LAYOUTS[layout](xv), 3, 3, pad)
        assert got[1:] == want[1:]
        _same_bytes(got[0], want[0])
        again = dg._im2col(LAYOUTS[layout](xv), 3, 3, pad)     # a cache hit
        _same_bytes(again[0], want[0])

    @pytest.mark.parametrize("c, pad", [(3, 1), (1, 2)])
    def test_shapes_differing_in_c_or_pad_get_their_own_index(self, c, pad):
        first = dg._taps(1, 7, 5, 3, 3, 1)[0]
        assert dg._taps(c, 7, 5, 3, 3, pad)[0] is not first
        xv = np.random.default_rng(1).normal(size=(2, c, 7, 5))
        _same_bytes(dg._im2col(xv, 3, 3, pad)[0], _ref_im2col(xv, 3, 3, pad)[0])
        assert not first.flags.writeable


class TestMixedMatmulIsImplicitProduct:
    """With float32 operands and a float64 adjoint, the vjps leave the
    promotion to numpy's implicit mixed product. They are pinned to the
    product with an explicit C-ordered float64 copy of the float32 operand,
    on contiguous operands and on the non-contiguous ones training hands
    them, so that a numpy whose implicit promotion rounds otherwise fails
    here rather than moving trained bytes. The adjoints stay float64: the
    float32 model's backward pass runs in float64."""

    @staticmethod
    def _c64(a):
        return a.astype(np.float64, order="C")

    def _check(self, av, bv, rng):
        a, b = dg.param(av, "a"), dg.param(bv, "b")
        out = dg.matmul(a, b)
        gv = rng.normal(size=out.shape)
        dg.backward(dg.sum_all(dg.mul(out, dg.constant(gv))))
        da = gv @ self._c64(np.swapaxes(bv, -1, -2))
        db = self._c64(np.swapaxes(av, -1, -2)) @ gv
        if db.ndim > bv.ndim:
            db = db.sum(axis=0)
        assert da.dtype == db.dtype == np.float64
        _same_bytes(a.adjoint, da)
        _same_bytes(b.adjoint, db)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((1, 1, 8), (8, 8)),            # one row through a weight
        ((4, 7, 16), (16, 32)),         # (batch, visits, d) @ weight
        ((32, 21, 32), (32, 1)),        # a hazard head
        ((4, 2, 7, 8), (4, 2, 8, 7)),   # attention scores, q @ k^T
        ((4, 2, 7, 7), (4, 2, 7, 8)),   # attention @ v
    ])
    def test_vjps(self, a_shape, b_shape):
        rng = np.random.default_rng(len(a_shape) + b_shape[-1])
        self._check(rng.normal(size=a_shape).astype(np.float32),
                    rng.normal(size=b_shape).astype(np.float32), rng)

    @pytest.mark.parametrize("b, l, h, d", [(32, 21, 4, 64), (4, 7, 2, 16)])
    def test_vjps_on_attention_head_views(self, b, l, h, d):
        # the transformer's q, k and v: transpose(reshape(x @ W + b, (b, l, h, hd)),
        # (0, 2, 1, 3)), float32 views that are not C-contiguous
        rng = np.random.default_rng(b + d)
        x = rng.normal(size=(b, l, d)).astype(np.float32)

        def heads():
            w = rng.normal(size=(d, d)).astype(np.float32)
            bias = rng.normal(size=d).astype(np.float32)
            return np.transpose(np.reshape(x @ w + bias, (b, l, h, d // h)), (0, 2, 1, 3))

        q, k, v = heads(), heads(), heads()
        attn = rng.uniform(size=(b, h, l, l)).astype(np.float32)
        assert not (q.flags.c_contiguous or k.flags.c_contiguous or v.flags.c_contiguous)
        self._check(q, np.transpose(k, (0, 1, 3, 2)), rng)      # q @ k^T
        self._check(attn, v, rng)                               # attention @ v

    @pytest.mark.parametrize("n, c, f, side", [
        (64, 8, 16, 16),                # the encoder's second layer
        (64, 16, 32, 8),                # its third layer
    ])
    def test_conv2d_input_adjoint_on_the_flipped_weight(self, n, c, f, side):
        # vjp_x multiplies float64 adjoint rows by the float32 flipped-weight
        # matrix, an F-ordered view
        rng = np.random.default_rng(n + c)
        xv = rng.normal(size=(n, c, side, side)).astype(np.float32)
        wv = rng.normal(size=(f, c, 3, 3)).astype(np.float32)
        gv = rng.normal(size=(n, f, side, side))
        wflip = wv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1).T
        assert not wflip.flags.c_contiguous
        gcols = _ref_im2col(gv, 3, 3, 1)[0]
        want = (gcols @ self._c64(wflip)).reshape(n, side, side, c).transpose(0, 3, 1, 2)
        x = dg.param(_channels_last(xv), "x")
        out = dg.conv2d(x, dg.param(wv, "w"), dg.param(np.zeros(f, np.float32), "b"))
        dg.backward(dg.sum_all(dg.mul(out, dg.constant(_channels_last(gv)))))
        _same_bytes(x.adjoint, want)
