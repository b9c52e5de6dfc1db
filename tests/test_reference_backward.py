"""A dense reference backward for the operator, transcribed from the chain rule.

Everything here is plain NumPy over whole tensors in call order: no
canonical RoI order, no twin handling, no stacked 1x1 VJP, no row blocks.
``nlroi_backward`` must agree with it to 1e-12, a bound that gradcheck's
1e-6 cannot replace: it catches a dropped or doubled small term after a
restructure that changes bits.

The bound is relative to the largest entry of each tensor's magnitude: the
same chain rule run on absolute values, with the softmax VJP's difference
taken as a sum. Where no term cancels, that is the tensor's own largest
entry. Where terms cancel it is larger, and it has to be: in the first
``oracle-diff`` config the gradients of w_phi, b_phi and w_psi cancel to
about 1e-8 of the sizes of their terms, and their rounding error reads up
to 1.3e-9 of their own largest entry.
"""

import numpy as np
import pytest

from nlroi.cli import _random_oracle_case
from nlroi.operator import (
    _ROW_BLOCK,
    NlRoiConfig,
    NlRoiParams,
    Scaling,
    init_params,
    nlroi_backward,
    nlroi_forward,
)
from nlroi.rng import Prng

TOL = 1e-12

# the operator stage that owns each compared tensor
STAGE = {
    "out": "forward",
    "dX": "tile_concat pass-through + embed and g_branch 1x1 VJPs",
    "w_phi": "embed", "b_phi": "embed", "w_psi": "embed",
    "w_g1": "g_branch", "b_g1": "g_branch", "w_g2": "g_branch", "b_g2": "g_branch",
}


def conv1x1(x, w, b):
    return np.einsum("oc,nchw->nohw", w, x) + b[None, :, None, None]


def conv1x1_vjp(x, w, d):
    """(dx, dw, db) of conv1x1(x, w, b) for upstream d."""
    return (
        np.einsum("oc,nohw->nchw", w, d),
        np.einsum("nohw,nchw->oc", d, x),
        d.sum(axis=(0, 2, 3)),
    )


def dense_forward(x, p, config, counts):
    """The forward in call order; returns the output and the activations."""
    n, d, h, w = x.shape
    phi = conv1x1(x, p.w_phi, p.b_phi).reshape(n, -1)
    psi = conv1x1(x, p.w_psi, np.zeros(config.d_f)).reshape(n, -1)
    g_pre = conv1x1(x, p.w_g1, p.b_g1)
    g_post = np.maximum(g_pre, 0.0)
    padded = np.pad(g_post, ((0, 0), (0, 0), (1, 1), (1, 1)))
    conv = np.zeros((n, config.d_g, h, w)) + p.b_g2[None, :, None, None]
    for ki in range(3):
        for kj in range(3):
            window = padded[:, :, ki : ki + h, kj : kj + w]
            conv += np.einsum("oc,nchw->nohw", p.w_g2[:, :, ki, kj], window)
    g = conv.mean(axis=(2, 3))
    y = np.zeros((n, config.d_g))
    probs = []
    start = 0
    for rois in counts:
        rows = slice(start, start + rois)
        s = phi[rows] @ psi[rows].T / config.scale()
        if not config.attend_to_self:
            np.fill_diagonal(s, -np.inf)
        # an image of 0 RoIs has no row maximum: initial gives an empty one
        e = np.exp(s - s.max(axis=1, keepdims=True, initial=-np.inf))
        prob = e / e.sum(axis=1, keepdims=True)
        y[rows] = prob @ g[rows]
        probs.append(prob)
        start += rois
    out = np.concatenate([x, np.broadcast_to(y[:, :, None, None], (n, config.d_g, h, w))], axis=1)
    return out, dict(phi=phi, psi=psi, g_pre=g_pre, padded=padded, g=g, probs=probs)


def dense_backward(x, p, config, counts, d_out, magnitude=False):
    """dX and the parameter gradients, by the chain rule stage by stage.

    With ``magnitude`` every factor is replaced by its absolute value and
    the softmax VJP's difference by a sum, so each entry is the sum of the
    sizes of the terms it adds up: the scale its rounding error has.
    """
    n, d, h, w = x.shape
    _, act = dense_forward(x, p, config, counts)
    if magnitude:
        x, d_out = np.abs(x), np.abs(d_out)
        p = NlRoiParams(**{name: np.abs(t) for name, t in p.tensors()})
        act = {k: [np.abs(a) for a in v] if k == "probs" else np.abs(v) for k, v in act.items()}
    # tile_concat: the first d channels pass through; tiling sums positions
    d_x = d_out[:, :d].copy()
    d_y = d_out[:, d:].sum(axis=(2, 3))
    # mix, softmax and score, one image at a time
    d_phi = np.zeros_like(act["phi"])
    d_psi = np.zeros_like(act["psi"])
    d_g = np.zeros_like(act["g"])
    start = 0
    for rois, prob in zip(counts, act["probs"]):
        rows = slice(start, start + rois)
        d_prob = d_y[rows] @ act["g"][rows].T
        d_g[rows] = prob.T @ d_y[rows]
        row_dot = (d_prob * prob).sum(axis=1, keepdims=True)
        d_s = prob * (d_prob + row_dot if magnitude else d_prob - row_dot)
        d_raw = d_s / config.scale()
        d_phi[rows] = d_raw @ act["psi"][rows]
        d_psi[rows] = d_raw.T @ act["phi"][rows]
        start += rois
    # g_branch: average pool, 3x3 conv with zero padding, ReLU, 1x1 conv
    d_conv = np.broadcast_to(d_g[:, :, None, None] / (h * w), (n, config.d_g, h, w))
    d_w_g2 = np.empty_like(p.w_g2)
    d_padded = np.zeros_like(act["padded"])
    for ki in range(3):
        for kj in range(3):
            window = act["padded"][:, :, ki : ki + h, kj : kj + w]
            d_w_g2[:, :, ki, kj] = np.einsum("nohw,nchw->oc", d_conv, window)
            d_padded[:, :, ki : ki + h, kj : kj + w] += np.einsum(
                "oc,nohw->nchw", p.w_g2[:, :, ki, kj], d_conv
            )
    d_b_g2 = d_conv.sum(axis=(0, 2, 3))
    d_g_pre = d_padded[:, :, 1 : h + 1, 1 : w + 1] * (act["g_pre"] > 0.0)
    grads = {"w_g2": d_w_g2, "b_g2": d_b_g2}
    # embed (phi, psi) and the g_branch's 1x1 conv, each a VJP of its own
    for name, upstream in (
        ("phi", d_phi.reshape(n, config.d_f, h, w)),
        ("psi", d_psi.reshape(n, config.d_f, h, w)),
        ("g1", d_g_pre),
    ):
        dx, dw, db = conv1x1_vjp(x, getattr(p, f"w_{name}"), upstream)
        d_x += dx
        grads[f"w_{name}"] = dw
        if name != "psi":
            grads[f"b_{name}"] = db
    return d_x, grads


def assert_close(name, got, want, magnitude):
    """|got - want| <= TOL * max(magnitude); a failure names the stage and the index."""
    assert got.shape == want.shape, f"{name} ({STAGE[name]}): shape {got.shape} != {want.shape}"
    if not want.size:
        return
    err = np.abs(got - want)
    scale = max(float(np.abs(magnitude).max()), np.finfo(float).tiny)
    at = np.unravel_index(np.argmax(err), err.shape)
    assert err[at] <= TOL * scale, (
        f"stage {STAGE[name]}: {name} differs from the dense reference by "
        f"{err[at] / scale:.3e} of its largest magnitude at index {tuple(map(int, at))} "
        f"(operator {got[at]!r}, reference {want[at]!r})"
    )


def check(x, params, config, counts=None, seed=0):
    counts = (x.shape[0],) if counts is None else tuple(counts)
    out, cache = nlroi_forward(x, params, config, counts=counts)
    want_out, _ = dense_forward(x, params, config, counts)
    assert_close("out", out, want_out, want_out)
    d_out = Prng(seed).normals(out.size).reshape(out.shape)
    d_x, grads = nlroi_backward(cache, params, config, d_out)
    want_dx, want = dense_backward(x, params, config, counts, d_out)
    size_dx, size = dense_backward(x, params, config, counts, d_out, magnitude=True)
    assert_close("dX", d_x, want_dx, size_dx)
    for name, g in grads.tensors():
        assert_close(name, g, want[name], size[name])


def test_oracle_diff_configs():
    # the first 20 configs that `nlroi oracle-diff --seed 0` draws; they
    # alternate attend_to_self and both scalings
    prng = Prng(0)
    for i in range(20):
        x, params, config = _random_oracle_case(prng, i)
        check(x, params, config, seed=i)


@pytest.mark.parametrize("attend", [True, False])
@pytest.mark.parametrize("scaling", list(Scaling))
def test_multi_image(attend, scaling):
    config = NlRoiConfig(
        d=8, d_f=3, d_mid=4, d_g=5, h=3, w=2, attend_to_self=attend, scaling=scaling
    )
    params = init_params(config, Prng(21))
    counts = (4, 4, 2, 0, 7, 3, 3)
    x = Prng(22).normals(sum(counts) * 8 * 3 * 2).reshape(-1, 8, 3, 2)
    # twins: RoI 1 repeats RoI 0, and the last image holds three equal RoIs
    x[1] = x[0]
    x[-2] = x[-1]
    x[-3] = x[-1]
    check(x, params, config, counts, seed=23)


@pytest.mark.parametrize("attend", [True, False])
@pytest.mark.parametrize("scaling", list(Scaling))
def test_images_across_row_blocks(attend, scaling):
    # the backward walks each image's rows in blocks of _ROW_BLOCK: the
    # first image spans three blocks, the last of them ragged, and the
    # second two
    config = NlRoiConfig(
        d=6, d_f=2, d_mid=3, d_g=3, h=2, w=2, attend_to_self=attend, scaling=scaling
    )
    params = init_params(config, Prng(24))
    counts = (2 * _ROW_BLOCK + 22, _ROW_BLOCK + 6)
    x = Prng(25).normals(sum(counts) * 6 * 2 * 2).reshape(-1, 6, 2, 2)
    check(x, params, config, counts, seed=26)


@pytest.mark.parametrize("attend", [True, False])
def test_twins_straddling_a_row_block_edge(attend):
    """Twins at canonical rows _ROW_BLOCK - 1 and _ROW_BLOCK fall in two
    blocks of the backward; with equal upstream rows their dX rows are
    equal."""
    config = NlRoiConfig(d=6, d_f=2, d_mid=3, d_g=3, h=2, w=2, attend_to_self=attend)
    params = init_params(config, Prng(27))
    n = _ROW_BLOCK + 20
    x = Prng(28).normals(n * 6 * 2 * 2).reshape(n, 6, 2, 2)
    # the last RoI in canonical order takes the bytes of the one at rank
    # _ROW_BLOCK - 1, so the pair sits at ranks _ROW_BLOCK - 1 and _ROW_BLOCK
    order = nlroi_forward(x, params, config)[1].order
    first, second = order[_ROW_BLOCK - 1], order[-1]
    x[second] = x[first]
    check(x, params, config, seed=29)
    out, cache = nlroi_forward(x, params, config)
    (k, a), = [t for t in cache.twins if t is not None]
    assert (k.tolist(), a.tolist()) == ([_ROW_BLOCK], [_ROW_BLOCK - 1])
    d_out = Prng(30).normals(out.size).reshape(out.shape)
    d_out[second] = d_out[first]
    d_x, _ = nlroi_backward(cache, params, config, d_out)
    assert d_x[second].tobytes() == d_x[first].tobytes()


def test_failure_names_stage_and_index():
    want = np.zeros((3, 4))
    want[0, 0] = 2.0
    got = want.copy()
    got[2, 1] += 1e-9
    with pytest.raises(AssertionError, match=r"stage g_branch: w_g1 .* at index \(2, 1\)"):
        assert_close("w_g1", got, want, want)
