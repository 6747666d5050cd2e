"""Bucket geometry walkthrough: latent shapes, token counts, balance.

A training bucket is a {batch, frames, height, width} quadruple. The VAE
compresses 4x temporally (keeping the leading frame) and 8x spatially,
then the model preset's 1x2x2 patchify turns the latent into tokens. Buckets are chosen so
different shape classes carry near-equal token counts per batch.
"""

from ditplan import TABLE2_FIT, Bucket, check_token_balance, latent_shape, token_count

print("== latent shapes ==")
for frames, h, w in [(125, 720, 1280), (29, 640, 640), (1, 640, 640)]:
    t_lat, h_lat, w_lat = latent_shape(frames, h, w)
    print(f"  {frames:>3} x {h} x {w}  ->  latent {t_lat} x {h_lat} x {w_lat}")

print()
print("== token counts (1x2x2 patchify) ==")
buckets = [
    Bucket(1, 29, 640, 640),
    Bucket(1, 29, 480, 854),   # snaps to 480x848: 854 is not VAE/patch divisible
    Bucket(1, 29, 854, 480),
    Bucket(1, 125, 320, 320),
    Bucket(8, 29, 320, 320),   # the odd one out, see below
]
print(f"  {'bucket':<20} {'snapped':<20} {'tokens/sample':>14} {'tokens/batch':>13}")
report = check_token_balance(buckets, TABLE2_FIT, tolerance=0.01)
for entry in report.entries:
    print(
        f"  {entry.bucket.label():<20} {entry.snapped.label():<20} "
        f"{entry.tokens:>14,} {entry.tokens_batch:>13,}"
    )
print(f"  max pairwise deviation: {report.max_deviation * 100:.1f}%  balanced={report.balanced}")
print("  the batch-8 short bucket carries 2x the tokens of the rest; the check")
print("  flags it rather than silently rescaling the batch dimension.")

print()
print("== the 115k-token regime ==")
shape = token_count(Bucket(1, 125, 720, 1280), TABLE2_FIT)
print(f"  125-frame 1280x720 video -> {shape.tokens:,} tokens per sample")
