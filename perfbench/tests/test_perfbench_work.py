"""Computed per-stage work against a hand count on a tiny config."""

from work import STAGES, stage_work

# N=2 RoIs, D=2 channels, Df=Dm=Dg=1, 1x1 spatial (P=1, F=1).
TINY = dict(n=2, d=2, d_f=1, d_mid=1, d_g=1, h=1, w=1)

# Hand count: a multiply-add is 2 flops, other arithmetic 1, compares 0.
HAND = {
    # phi and psi: 2 outputs each, 2 input channels each -> 2 * 2 * 2 * 2
    "embed": dict(fwd_flops=16,
                  # per conv: dX 2*2*1 MA, dW 2*2 MA (over N*P=2), db 2 adds
                  vjp_flops=2 * (8 + 8 + 2)),
    # 2x2 scores, one multiply-add each; backward two 2x1 products over N=2
    "score": dict(fwd_flops=8, vjp_flops=16),
    # subtract, exp, add, divide per entry; backward dot (MA) + sub + mul
    "softmax": dict(fwd_flops=16, vjp_flops=16),
    # 1x1: 2 outputs x 2 channels MA = 8; 3x3: 2 outputs x 9 taps MA = 36;
    # running-mean pool: 3 per element = 6
    "g_branch": dict(fwd_flops=8 + 36 + 6,
                     # 1x1 VJP 18, ReLU VJP 2 multiplies, 3x3 VJP:
                     # dW 9 MA x 2 = 36, dX taps 36, dX scatter 18, db 2
                     vjp_flops=18 + 2 + 36 + 36 + 18 + 2),
    # Y = P G: 2 outputs x 2 terms MA; backward dP and dG: 16
    "mix": dict(fwd_flops=8, vjp_flops=16),
    # copies only; backward sums each tiled gradient once: 2 adds
    "tile_concat": dict(fwd_flops=0, vjp_flops=2),
}


def test_flops_match_hand_count():
    got = stage_work(**TINY)
    assert tuple(got) == STAGES
    for stage, want in HAND.items():
        assert got[stage]["fwd_flops"] == want["fwd_flops"], stage
        assert got[stage]["vjp_flops"] == want["vjp_flops"], stage


def test_bytes_are_eight_per_element_read_or_written():
    got = stage_work(**TINY)
    # score: read phi, psi (2 x 2 elements), write 4 scores
    assert got["score"]["fwd_bytes"] == 8 * (4 + 4)
    # softmax: read 4, write 4
    assert got["softmax"]["fwd_bytes"] == 8 * 8
    # mix: read P (4) and G (2), write Y (2)
    assert got["mix"]["fwd_bytes"] == 8 * 8


def test_pairwise_stages_grow_with_n_squared_and_channel_stages_with_n():
    one = stage_work(n=64, d=8, d_f=4, d_mid=4, d_g=4, h=4, w=4)
    two = stage_work(n=128, d=8, d_f=4, d_mid=4, d_g=4, h=4, w=4)
    for stage in ("score", "softmax", "mix"):
        assert two[stage]["fwd_flops"] == 4 * one[stage]["fwd_flops"]
        assert two[stage]["vjp_flops"] == 4 * one[stage]["vjp_flops"]
    for stage in ("embed", "g_branch"):
        assert two[stage]["fwd_flops"] == 2 * one[stage]["fwd_flops"]
