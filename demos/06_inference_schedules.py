"""Inference scheduling walkthrough: diffusion cache, VAE tiles, windows.

Training-free acceleration: reuse rear-layer outputs across adjacent
denoising steps (after a warmup, refreshing every k steps), decode the
latent in overlapping tiles across devices, and denoise long latents as
overlapping temporal windows averaged at shared indices.
"""

from ditplan import plan_cache, plan_temporal_windows, plan_vae_tiles

print("== diffusion cache schedules (50 steps, warmup 10, cached step = 0.25x) ==")
print(f"  {'interval':>8} {'full':>5} {'cached':>7} {'speedup':>8}")
for k in (1, 2, 3, 5):
    schedule = plan_cache(50, warmup=10, interval=k, cached_cost_fraction=0.25)
    print(
        f"  {k:>8} {schedule.full_steps:>5} {schedule.cached_steps:>7} "
        f"{schedule.speedup:>8.3f}"
    )
ref = plan_cache(50, 10, 3, 0.25)
flags = "".join("F" if f else "c" for f in ref.per_step_full)
print(f"  k=3 step pattern: {flags}")
print(f"  k=3 lands at {ref.speedup:.2f}x, the operating point of rear-layer caching;")
print("  the first ten steps always run full for stable composition.")

print()
print("== VAE decode tiling across 8 devices ==")
plan = plan_vae_tiles((32, 90, 160), (32, 48, 48), (0, 8, 8), devices=8)
print(f"  latent 32x90x160, tile 32x48x48, overlap 8: {len(plan.tiles)} tiles")
print(f"  parallel speedup {plan.parallel_speedup:.2f}x across 8 devices")
# Each tile's 3-D weight map is the outer product of its per-axis weights;
# summing the maps over every tile must give 1 at each latent position.
T, H, W = plan.latent
total = [[[0.0] * W for _ in range(H)] for _ in range(T)]
for tile, (wt, wh, ww) in zip(plan.tiles, plan.blend_weights()):
    t0, h0, w0 = tile.start
    for i, a in enumerate(wt):
        for j, b in enumerate(wh):
            row = total[t0 + i][h0 + j]
            for k, c in enumerate(ww):
                row[w0 + k] += a * b * c
unit = all(abs(x - 1.0) <= 1e-12 for plane in total for row in plane for x in row)
print(f"  blend weights sum to 1 everywhere: {unit}")

print()
print("== temporal windows for long-latent denoising ==")
plan = plan_temporal_windows(n_prime=32, n=8, s=4)
print(f"  latent 32, window 8, stride 4 -> {plan.num_clips} clips: {list(plan.clips)}")
print(f"  multiplicity: {list(plan.coverage)}")
print("  interior indices belong to two clips and average with weight 1/2;")
print("  the final window clamps to the end so nothing goes uncovered.")
plan33 = plan_temporal_windows(33, 8, 4)
print(f"  latent 33 clamps its last clip to {plan33.clips[-1]}")
