import pytest
from hypothesis import given
from hypothesis import strategies as st

from ditplan.buckets import (
    Bucket,
    check_token_balance,
    latent_shape,
    snap_bucket,
    snap_to_multiple,
    token_count,
)
from ditplan.errors import ConfigError, DimensionError
from ditplan.presets import TABLE2_FIT


def test_latent_shape_reference_video():
    # 125 frames at 1280x720: temporal 1 + 124/4 = 32, spatial /8
    assert latent_shape(125, 720, 1280) == (32, 90, 160)


def test_latent_shape_single_frame():
    assert latent_shape(1, 640, 640) == (1, 80, 80)


def test_latent_shape_29_frames():
    assert latent_shape(29, 320, 320) == (8, 40, 40)


def test_latent_shape_errors_name_axis():
    with pytest.raises(DimensionError) as err:
        latent_shape(29, 320, 322)
    assert "width" in str(err.value)
    with pytest.raises(DimensionError) as err:
        latent_shape(29, 321, 320)
    assert "height" in str(err.value)
    with pytest.raises(DimensionError) as err:
        latent_shape(30, 320, 320)
    assert "frames" in str(err.value)


def test_token_count_balanced_pair():
    # both shapes collapse to 12,800 tokens under the preset's 1x2x2 patchify
    a = token_count(Bucket(1, 29, 640, 640), TABLE2_FIT)
    b = token_count(Bucket(1, 125, 320, 320), TABLE2_FIT)
    assert a.tokens == 12_800
    assert b.tokens == 12_800
    assert a.tokens_batch == b.tokens_batch == 12_800


def test_token_count_115k_regime():
    shape = token_count(Bucket(1, 125, 720, 1280), TABLE2_FIT)
    assert shape.tokens == 32 * 45 * 80 == 115_200


def test_token_count_minimal():
    shape = token_count(Bucket(1, 1, 16, 16), TABLE2_FIT)
    assert shape.tokens == 1


def test_token_count_single_image():
    assert token_count(Bucket(1, 1, 320, 320), TABLE2_FIT).tokens == 400


def test_token_count_batch_scaling():
    one = token_count(Bucket(1, 29, 320, 320), TABLE2_FIT)
    eight = token_count(Bucket(8, 29, 320, 320), TABLE2_FIT)
    assert eight.tokens == one.tokens
    assert eight.tokens_batch == 8 * one.tokens_batch == 25_600


@given(
    b=st.integers(min_value=1, max_value=32),
    frames_q=st.integers(min_value=0, max_value=40),
    hw=st.sampled_from([(320, 320), (640, 640), (720, 1280), (960, 960)]),
)
def test_tokens_linear_in_batch(b, frames_q, hw):
    frames = 1 + 4 * frames_q
    h, w = hw
    single = token_count(Bucket(1, frames, h, w), TABLE2_FIT)
    batched = token_count(Bucket(b, frames, h, w), TABLE2_FIT)
    assert batched.tokens_batch == b * single.tokens_batch


@given(frames_q=st.integers(min_value=0, max_value=30), steps=st.integers(min_value=1, max_value=8))
def test_latent_monotone_in_each_dim(frames_q, steps):
    frames = 1 + 4 * frames_q
    base = latent_shape(frames, 320, 320)
    longer = latent_shape(frames + 4 * steps, 320, 320)
    taller = latent_shape(frames, 320 + 8 * steps, 320)
    wider = latent_shape(frames, 320, 320 + 8 * steps)
    assert longer[0] > base[0] and longer[1:] == base[1:]
    assert taller[1] > base[1]
    assert wider[2] > base[2]


def test_snap_to_multiple():
    assert snap_to_multiple(854, 16) == 848
    assert snap_to_multiple(480, 16) == 480
    assert snap_to_multiple(7, 16) == 16  # never snaps to zero


def test_snap_bucket_rounds_nondivisible():
    snapped = snap_bucket(Bucket(1, 29, 480, 854), TABLE2_FIT)
    assert (snapped.height, snapped.width) == (480, 848)


def test_balance_equal_buckets():
    report = check_token_balance([Bucket(1, 29, 640, 640), Bucket(1, 125, 320, 320)], TABLE2_FIT, 0.01)
    assert report.balanced
    assert report.max_deviation == 0.0


def test_balance_rounded_bucket_within_percent():
    report = check_token_balance([Bucket(1, 29, 640, 640), Bucket(1, 29, 480, 854)], TABLE2_FIT, 0.01)
    # 854 snaps to 848: 12,800 vs 8*30*53 = 12,720 tokens, 0.63% apart
    tokens = {e.bucket.width: e.tokens_batch for e in report.entries}
    assert tokens[640] == 12_800
    assert tokens[854] == 12_720
    assert report.balanced
    assert report.max_deviation == pytest.approx(80 / 12_720)


def test_balance_flags_published_batch8_bucket():
    # the published batch-8 small bucket carries twice the tokens; it must
    # be reported, not silently rescaled
    report = check_token_balance([Bucket(1, 29, 640, 640), Bucket(8, 29, 320, 320)], TABLE2_FIT, 0.01)
    assert not report.balanced
    counts = sorted(e.tokens_batch for e in report.entries)
    assert counts == [12_800, 25_600]
    assert report.flagged[0][2] == pytest.approx(1.0)


def test_balance_rejects_negative_tolerance():
    # Two orientations of one bucket carry equal tokens (deviation 0.0); a
    # negative tolerance would flag them.
    pair = [Bucket(1, 29, 480, 854), Bucket(1, 29, 854, 480)]
    with pytest.raises(ConfigError, match=r"^tolerance: must be >= 0, got -1"):
        check_token_balance(pair, TABLE2_FIT, -1.0)
    report = check_token_balance(pair, TABLE2_FIT, 0.0)
    assert report.balanced
    assert report.max_deviation == 0.0
