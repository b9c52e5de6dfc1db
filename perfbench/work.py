"""Per-stage work computed from array shapes (not measured).

Counting rule: a multiply-add counts 2 flops, any other arithmetic
element operation (add, subtract, multiply, divide, exp) counts 1,
comparisons and copies count 0. Bytes are the compulsory traffic of the
stage's primitive calls: every float64 input read once plus every output
written once, 8 bytes each. The 3x3 convolution counts all nine taps at
every position, as the code computes them over the zero padding.

Symbols: N RoIs, D input channels, Df phi/psi width, Dm g-branch middle
width, Dg g width, P = H*W positions, F = Df*P flattened phi/psi length.
"""

from __future__ import annotations

STAGES = ("embed", "score", "softmax", "g_branch", "mix", "tile_concat")
F64 = 8


def _conv1x1(n, p, cin, cout):
    """(flops, bytes) of one 1x1 conv forward and of its VJP."""
    fwd = (2 * n * p * cin * cout, n * p * cin + cout * cin + cout + n * p * cout)
    vjp = (
        4 * n * p * cin * cout + n * p * cout,
        2 * (n * p * cin + cout * cin) + n * p * cout + cout,
    )
    return fwd, vjp


def stage_work(n: int, d: int, d_f: int, d_mid: int, d_g: int, h: int, w: int) -> dict:
    """{stage: {fwd_flops, fwd_bytes, vjp_flops, vjp_bytes}}, bytes in B."""
    p = h * w
    f = d_f * p
    nn = n * n
    (phi_f, phi_b), (phi_vf, phi_vb) = _conv1x1(n, p, d, d_f)
    (g1_f, g1_b), (g1_vf, g1_vb) = _conv1x1(n, p, d, d_mid)
    mid = n * d_mid * p
    gmap = n * d_g * p
    k3 = d_g * d_mid * 9
    counts = {
        # fwd flops, fwd elements, vjp flops, vjp elements
        "embed": (2 * phi_f, 2 * phi_b, 2 * phi_vf, 2 * phi_vb),
        "score": (2 * nn * f, 2 * n * f + nn, 4 * nn * f, 2 * nn + 4 * n * f),
        "softmax": (4 * nn, 2 * nn, 4 * nn, 3 * nn),
        "g_branch": (
            # 1x1 conv, ReLU (comparisons only), 3x3 conv, running-mean pool
            g1_f + 0 + 2 * 9 * d_mid * gmap + 3 * gmap,
            g1_b + 2 * mid + (mid + k3 + d_g + gmap) + (gmap + n * d_g),
            # 1x1 VJP, ReLU VJP, 3x3 VJP (dW, dX taps, dX scatter, db)
            g1_vf + mid + (4 * 9 * d_mid * gmap + 9 * mid + gmap),
            g1_vb + 3 * mid + (2 * mid + 2 * k3 + gmap + d_g),
        ),
        "mix": (2 * nn * d_g, nn + 2 * n * d_g, 4 * nn * d_g, 2 * nn + 3 * n * d_g),
        "tile_concat": (
            0,
            (n * d_g + gmap) + 2 * (n * d * p + gmap),
            gmap,
            2 * (n * (d + d_g) * p) + gmap + n * d_g,
        ),
    }
    return {
        stage: {
            "fwd_flops": ff,
            "fwd_bytes": F64 * fe,
            "vjp_flops": vf,
            "vjp_bytes": F64 * ve,
        }
        for stage, (ff, fe, vf, ve) in counts.items()
    }
