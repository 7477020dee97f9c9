//! `baseline.plain_loop_s_per_iter`: the same iteration without a middleware.
//! One thread reads each staged block file with `fileio::read_matrix`,
//! multiplies with `spmv_into` and adds the partial into the row block — no
//! storage layer, no scheduler, no budget (one block in memory at a time).
//! `wall_s_per_iter` over this is the middleware's overhead factor.

use crate::stage::Staged;
use crate::workload::Workload;
use dooc_sparse::blockgrid::BlockGrid;
use dooc_sparse::{dense, fileio};
use std::time::Instant;

/// Seconds per iteration for `iterations` iterations from `x0`.
pub fn plain_loop(w: &Workload, staged: &Staged, iterations: usize) -> Result<Vec<f64>, String> {
    let grid = *staged.app.grid();
    let mut x = staged.x0.clone();
    let mut secs = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let t0 = Instant::now();
        let mut y = vec![0.0; w.n as usize];
        for coord in grid.coords() {
            // Block row u lives on node u mod nodes (striped ownership).
            let dir = &staged.dirs[(coord.u % w.nodes as u64) as usize];
            let path = dir.join(BlockGrid::file_name(coord));
            let m = fileio::read_matrix(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let (rs, re) = grid.range(coord.u);
            let (cs, ce) = grid.range(coord.v);
            let mut part = vec![0.0; (re - rs) as usize];
            m.spmv_into(&x[cs as usize..ce as usize], &mut part)
                .map_err(|e| format!("spmv {coord}: {e}"))?;
            dense::add_assign(&mut y[rs as usize..re as usize], &part);
        }
        x = y;
        secs.push(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&x);
    Ok(secs)
}
