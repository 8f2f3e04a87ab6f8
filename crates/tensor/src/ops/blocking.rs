//! Per-shape blocking heuristic shared by the GEMM cores.
//!
//! Both matrix-multiply families in this crate — the dense f32 core in
//! [`super::matmul`] and the packed integer microkernels in [`super::int`]
//! — size their work units here, so the cache model lives in one place:
//!
//! * **Task work estimate.** [`gemm_task_work`] is the flop estimate the
//!   worker pool uses to decide how many tasks a GEMM is worth; both cores
//!   feed it to [`crate::parallel::par_chunks_mut`]. Its flop is the
//!   pool's work unit, which the memory-bound passes match through
//!   [`crate::parallel::MOVE_WORK`].
//! * **Row panels.** [`PANEL_ROWS`] output rows form one panel — the unit
//!   the packed integer kernel partitions over the pool, chosen so a
//!   panel's weight rows plus one L1 column tile stay cache-resident.
//! * **Column tiles.** [`col_tile`] sizes the stripe of packed activation
//!   columns a panel sweeps before moving on, so the tile (`tile ×
//!   packed_k` i16 lanes) stays within half an L1 data cache and is reused
//!   by every row of the panel.
//!
//! The f32 core *consults* this module but deliberately keeps its
//! broadcast-form i-k-j loop untiled: it streams full `n`-wide rows of the
//! right operand, and measurements at the bench shape (256³) show
//! panel×tile restructuring slows that kernel down (the wide contiguous
//! inner loop is already bandwidth-optimal for f32, and tiling shortens
//! it). The dot-form integer kernel has the opposite profile — its inner
//! loop walks two short i16 streams, so keeping a tile of those streams
//! hot in L1 across a panel is what makes it beat the f32 core. The
//! heuristic therefore exposes both shapes of advice and each core takes
//! the part that matches its loop form.

/// i16 lanes in one 256-bit vector — the pad quantum of the packed
/// integer layouts. Scale blocks are padded to multiples of this so every
/// block-aligned dot product runs over whole vector registers.
pub const LANE: usize = 16;

/// Output rows per panel in the packed integer kernel: the parallel work
/// unit, and the number of weight rows that share one resident column
/// tile. Small enough that `PANEL_ROWS` packed weight rows (a few KiB)
/// never crowd the tile out of L1.
pub const PANEL_ROWS: usize = 4;

/// Bytes of L1 data cache a column tile may occupy: half of the common
/// 32 KiB, leaving the other half for the panel's weight rows, the output
/// stripe, and incidental traffic.
const L1_TILE_BYTES: usize = 16 * 1024;

/// Work units one `[k] × [k, n]` output row costs: its flop count, a
/// multiply-accumulate counting two. This defines the worker pool's work
/// unit (see [`crate::parallel::GRAIN`]); both GEMM cores hand it to the
/// pool as their per-chunk estimate.
pub fn gemm_task_work(k: usize, n: usize) -> usize {
    2 * k.max(1) * n.max(1)
}

/// Number of packed activation columns (each `packed_k` i16 lanes long) a
/// panel sweeps per tile: as many as fit in the L1 tile budget, clamped
/// to `[4, n]` and rounded down to a multiple of 4 so the 4-wide generic
/// microkernel never straddles a tile edge.
pub fn col_tile(packed_k: usize, n: usize) -> usize {
    if n == 0 {
        return 4;
    }
    let fit = L1_TILE_BYTES / (2 * packed_k.max(1));
    let tile = fit.clamp(4, n.max(4));
    (tile & !3).max(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_tile_fits_l1_and_is_quad_aligned() {
        for pk in [1usize, 16, 64, 256, 1024, 4096, 1 << 20] {
            for n in [1usize, 4, 7, 256, 10_000] {
                let t = col_tile(pk, n);
                assert!(t >= 4, "tile {t} too small at pk={pk} n={n}");
                assert_eq!(t % 4, 0, "tile {t} not quad-aligned");
                // Either the tile obeys the L1 budget or it is the minimum.
                assert!(t == 4 || 2 * t * pk <= L1_TILE_BYTES);
            }
        }
    }

    #[test]
    fn task_work_scales_with_shape_and_never_vanishes() {
        assert_eq!(gemm_task_work(256, 256), 2 * 256 * 256);
        assert!(gemm_task_work(0, 0) > 0);
    }
}
