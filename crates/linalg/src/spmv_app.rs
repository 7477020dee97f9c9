//! The paper's use case (§IV): iterated sparse matrix–vector multiplication
//! as a DOoC task DAG.
//!
//! The matrix `A` is partitioned into a K×K grid of sub-matrices, each in a
//! binary CRS file staged on its owner node's scratch directory. Iteration
//! `i` computes partials `p_{i,u,v} = A_{u,v} · x_{i-1,v}` (one *multiply*
//! task per sub-matrix) and row results `x_{i,u} = Σ_v p_{i,u,v}` (*sum*
//! tasks). (The paper writes `x^i_{u,v} = A_{u,v} * x^{i-1}_u`; dimensional
//! consistency of the reduction `x^i_u = Σ_v x^i_{u,v}` requires the
//! multiply to consume the *column* sub-vector, which is what we build.)
//!
//! Two experiment policies from §V:
//!
//! * [`ReductionPlan::RowRoot`] + [`SyncPolicy::PhaseBarriers`] — Table III's
//!   "simple task scheduling policy": all compute nodes perform their local
//!   SpMVs first, partials are reduced on the first processor of each row,
//!   with global synchronization after the SpMV phase and after the
//!   reduction;
//! * [`ReductionPlan::LocalAggregation`] + [`SyncPolicy::IterationBarrier`] —
//!   Table IV: intra-iteration interleaving (no post-SpMV barrier) and
//!   per-node pre-reduction of partials before any network transfer; only
//!   the between-iterations synchronization remains (a Lanczos iteration's
//!   reorthogonalization needs it).
//!
//! [`SyncPolicy::None`] gives the pure dataflow execution of §IV (Fig. 5),
//! used by the Fig. 3/4/5 reproductions and the ablation benches.

use dooc_core::{
    counter, ArrayView, Counter, DataRef, ExecOutcome, TaskExecutor, TaskGraph, TaskSpec,
    WorkerContext,
};
use dooc_sparse::blockgrid::{BlockCoord, BlockGrid};
use dooc_sparse::genmat::GapGenerator;
use dooc_sparse::pool::{fork_join_with, host_parallelism};
use dooc_sparse::{ComputePool, CsrBytes, CsrMatrix, SparseError};
use std::collections::HashMap;
use std::path::Path;
use std::sync::OnceLock;

/// How often a `multiply` validated its matrix in full, and how often it
/// found the matrix already validated in the same residency.
struct SpmvObs {
    matrix_checks: &'static Counter,
    matrix_checks_skipped: &'static Counter,
}

fn obs() -> &'static SpmvObs {
    static O: OnceLock<SpmvObs> = OnceLock::new();
    O.get_or_init(|| SpmvObs {
        matrix_checks: counter("linalg.matrix_checks"),
        matrix_checks_skipped: counter("linalg.matrix_checks_skipped"),
    })
}

/// Where partial results are reduced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReductionPlan {
    /// One sum task per row, pinned to the row root (owner of `A_{u,0}`):
    /// "all these intermediate vectors were being sent to the node
    /// responsible for the reduction."
    RowRoot,
    /// Per-node pre-reduction first: "the reduction is instead first
    /// performed locally by each node before communicating the results."
    LocalAggregation,
}

/// Which global synchronizations are inserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Barrier after the multiply phase and after the reduction phase
    /// (Table III).
    PhaseBarriers,
    /// Barrier only between iterations (Table IV).
    IterationBarrier,
    /// Pure dataflow (§IV / Fig. 5).
    None,
}

/// A sub-matrix staged on a node.
#[derive(Clone, Debug)]
pub struct StagedBlock {
    /// Grid coordinates.
    pub coord: BlockCoord,
    /// Node whose scratch directory holds the file.
    pub node: u64,
    /// File size in bytes (the transfer unit the experiments measure).
    pub bytes: u64,
    /// Non-zeros (flop accounting).
    pub nnz: u64,
}

/// Output of [`SpmvAppBuilder::build`]: the task graph, the external-array
/// location map (array name -> owning node), and geometry hints for
/// `DoocConfig` as `(array, block_size, len)` triples.
pub type SpmvPlan = (TaskGraph, HashMap<String, u64>, Vec<(String, u64, u64)>);

/// Builder for the iterated-SpMV experiment.
pub struct SpmvAppBuilder {
    grid: BlockGrid,
    iterations: u64,
    blocks: Vec<StagedBlock>,
    reduction: ReductionPlan,
    sync: SyncPolicy,
    /// Node owning each row's initial/output sub-vectors (defaults to the
    /// owner of `A_{u,0}` — the paper's row root).
    row_root: Vec<u64>,
    /// Persist the final iteration's vectors to disk (lets callers verify
    /// results after the run).
    persist_final: bool,
}

impl SpmvAppBuilder {
    /// Starts a builder from staged sub-matrices (see
    /// [`SpmvAppBuilder::stage`]).
    pub fn new(grid: BlockGrid, iterations: u64, blocks: Vec<StagedBlock>) -> Self {
        assert_eq!(
            blocks.len() as u64,
            grid.k * grid.k,
            "need one staged block per grid cell"
        );
        let mut row_root = vec![0u64; grid.k as usize];
        for b in &blocks {
            if b.coord.v == 0 {
                row_root[b.coord.u as usize] = b.node;
            }
        }
        Self {
            grid,
            iterations,
            blocks,
            reduction: ReductionPlan::LocalAggregation,
            sync: SyncPolicy::IterationBarrier,
            row_root,
            persist_final: true,
        }
    }

    /// Generates and writes all K² sub-matrix files into the owners' scratch
    /// directories with the paper's gap generator, returning the staged-block
    /// descriptions. `owner(coord)` maps a grid cell to a node.
    ///
    /// The cells are staged in parallel, at the host's parallelism
    /// ([`BlockGrid::write_cells`]): each has a seed of its own derived from
    /// `seed` and its coordinates, so a file's bytes never depend on the
    /// thread count or on which thread wrote it.
    pub fn stage(
        scratch_dirs: &[std::path::PathBuf],
        grid: BlockGrid,
        gen: &GapGenerator,
        seed: u64,
        owner: impl Fn(BlockCoord) -> u64,
    ) -> dooc_sparse::Result<Vec<StagedBlock>> {
        Self::stage_cells(
            grid,
            gen,
            seed,
            owner,
            |node| Some(scratch_dirs[node as usize].as_path()),
            host_parallelism(),
        )
    }

    /// Per-process variant of [`SpmvAppBuilder::stage`] for multi-process
    /// clusters: generates every block (so all processes agree on sizes,
    /// nnz and ownership) but writes only the files owned by node `me` into
    /// `scratch_dir`. Every process must call this with the same grid,
    /// generator, seed and owner function. Cells are staged in parallel as
    /// [`SpmvAppBuilder::stage`] stages them, and its list is `stage`'s.
    pub fn stage_local(
        scratch_dir: &std::path::Path,
        me: u64,
        grid: BlockGrid,
        gen: &GapGenerator,
        seed: u64,
        owner: impl Fn(BlockCoord) -> u64,
    ) -> dooc_sparse::Result<Vec<StagedBlock>> {
        Self::stage_cells(
            grid,
            gen,
            seed,
            owner,
            |node| (node == me).then_some(scratch_dir),
            host_parallelism(),
        )
    }

    /// Generates every cell at `parallelism` and writes those whose owner
    /// `dir_of` has a directory for. A cell's size is what the encoder
    /// reports — for a cell another process stages, what the encoder's own
    /// header says it would write
    /// ([`dooc_sparse::fileio::encoded_size`]) — never a formula kept
    /// beside it: the storage layer checks each file against this number.
    fn stage_cells<'d>(
        grid: BlockGrid,
        gen: &GapGenerator,
        seed: u64,
        owner: impl Fn(BlockCoord) -> u64,
        dir_of: impl Fn(u64) -> Option<&'d Path>,
        parallelism: usize,
    ) -> dooc_sparse::Result<Vec<StagedBlock>> {
        let nodes: Vec<u64> = grid.coords().map(owner).collect();
        let dirs: Vec<Option<&Path>> = nodes.iter().map(|&node| dir_of(node)).collect();
        let cells = grid.write_cells(gen, seed, &dirs, parallelism)?;
        Ok(grid
            .coords()
            .zip(nodes)
            .zip(cells)
            .map(|((coord, node), cell)| StagedBlock {
                coord,
                node,
                bytes: cell.bytes,
                nnz: cell.nnz,
            })
            .collect())
    }

    /// Writes the initial vector `x^0` as per-row files `x_0_u` on each row
    /// root. `x.len()` must equal the grid's matrix order.
    pub fn stage_initial_vector(
        &self,
        scratch_dirs: &[std::path::PathBuf],
        x: &[f64],
    ) -> std::io::Result<()> {
        self.stage_vector_rows(x, |node| Some(scratch_dirs[node as usize].as_path()))
    }

    /// Per-process variant of [`SpmvAppBuilder::stage_initial_vector`]:
    /// writes only the row files whose row root is node `me` into
    /// `scratch_dir`.
    pub fn stage_initial_vector_local(
        &self,
        scratch_dir: &std::path::Path,
        me: u64,
        x: &[f64],
    ) -> std::io::Result<()> {
        self.stage_vector_rows(x, |node| (node == me).then_some(scratch_dir))
    }

    /// Writes each row of `x^0` whose row root `dir_of` has a directory for.
    fn stage_vector_rows<'d>(
        &self,
        x: &[f64],
        dir_of: impl Fn(u64) -> Option<&'d Path>,
    ) -> std::io::Result<()> {
        assert_eq!(x.len() as u64, self.grid.n, "vector length mismatch");
        for u in 0..self.grid.k {
            let Some(dir) = dir_of(self.row_root[u as usize]) else {
                continue;
            };
            let (s, e) = self.grid.range(u);
            let mut raw = Vec::with_capacity(8 * (e - s) as usize);
            for v in &x[s as usize..e as usize] {
                raw.extend_from_slice(&v.to_le_bytes());
            }
            std::fs::write(dir.join(BlockGrid::vector_name(0, u)), raw)?;
        }
        Ok(())
    }

    /// Selects the reduction plan.
    pub fn reduction(mut self, r: ReductionPlan) -> Self {
        self.reduction = r;
        self
    }

    /// Selects the synchronization policy.
    pub fn sync(mut self, s: SyncPolicy) -> Self {
        self.sync = s;
        self
    }

    /// Controls final-vector persistence.
    pub fn persist_final(mut self, yes: bool) -> Self {
        self.persist_final = yes;
        self
    }

    /// Name of the matrix array for a grid cell (the staged file's name).
    pub fn matrix_array(coord: BlockCoord) -> String {
        BlockGrid::file_name(coord)
    }

    fn block(&self, u: u64, v: u64) -> &StagedBlock {
        &self.blocks[(u * self.grid.k + v) as usize]
    }

    fn vec_bytes(&self, u: u64) -> u64 {
        8 * self.grid.block_dim(u)
    }

    /// Builds the task graph, the external-array location map, and the
    /// geometry hints for `DoocConfig`.
    pub fn build(&self) -> SpmvPlan {
        let k = self.grid.k;
        let mut tasks: Vec<TaskSpec> = Vec::new();
        let mut external: HashMap<String, u64> = HashMap::new();
        let mut geometry: Vec<(String, u64, u64)> = Vec::new();

        for b in &self.blocks {
            let name = Self::matrix_array(b.coord);
            external.insert(name.clone(), b.node);
            geometry.push((name, b.bytes, b.bytes));
        }
        for u in 0..k {
            let name = BlockGrid::vector_name(0, u);
            external.insert(name.clone(), self.row_root[u as usize]);
            geometry.push((name, self.vec_bytes(u), self.vec_bytes(u)));
        }

        for i in 1..=self.iterations {
            let final_iter = i == self.iterations;
            // Multiply tasks: p_{i,u,v} = A_{u,v} x_{i-1,v}.
            for u in 0..k {
                for v in 0..k {
                    let b = self.block(u, v);
                    let mut t = TaskSpec::new(format!("x_{i}_{u}_{v}"), "multiply")
                        .input(Self::matrix_array(b.coord), b.bytes)
                        .input(BlockGrid::vector_name(i - 1, v), self.vec_bytes(v))
                        .output(BlockGrid::partial_name(i, u, v), self.vec_bytes(u))
                        .flops(2 * b.nnz)
                        .splittable();
                    if self.sync != SyncPolicy::None && i > 1 {
                        // Between-iterations barrier.
                        t = t.input(format!("bar_iter_{}", i - 1), 8);
                    }
                    tasks.push(t);
                }
            }
            if self.sync == SyncPolicy::PhaseBarriers {
                // Barrier after the multiply phase: sums wait for every
                // multiply of this iteration.
                let mut bt = TaskSpec::new(format!("bar_mul_{i}"), "barrier")
                    .output(format!("bar_mul_{i}"), 8);
                for u in 0..k {
                    for v in 0..k {
                        bt = bt.input(BlockGrid::partial_name(i, u, v), 8);
                    }
                }
                tasks.push(bt);
            }
            // Reduction tasks.
            match self.reduction {
                ReductionPlan::RowRoot => {
                    for u in 0..k {
                        let mut t = TaskSpec::new(
                            format!("x_{i}_{u}"),
                            if final_iter && self.persist_final {
                                "sum_final"
                            } else {
                                "sum"
                            },
                        )
                        .output(BlockGrid::vector_name(i, u), self.vec_bytes(u))
                        .flops(self.vec_bytes(u) / 8 * k)
                        .pin_to(self.row_root[u as usize]);
                        for v in 0..k {
                            t = t.input(BlockGrid::partial_name(i, u, v), self.vec_bytes(u));
                        }
                        if self.sync == SyncPolicy::PhaseBarriers {
                            t = t.input(format!("bar_mul_{i}"), 8);
                        }
                        tasks.push(t);
                    }
                }
                ReductionPlan::LocalAggregation => {
                    // Group row u's partials by the node owning A_{u,v}.
                    for u in 0..k {
                        let mut by_node: HashMap<u64, Vec<u64>> = HashMap::new();
                        for v in 0..k {
                            by_node.entry(self.block(u, v).node).or_default().push(v);
                        }
                        let mut row_inputs: Vec<(String, u64)> = Vec::new();
                        let mut nodes: Vec<u64> = by_node.keys().copied().collect();
                        nodes.sort_unstable();
                        let single_group = by_node.len() == 1;
                        for g in nodes {
                            let vs = &by_node[&g];
                            if vs.len() == 1 || single_group {
                                // Single partial on this node — or all
                                // partials already co-located with the row
                                // root's group — no pre-sum is useful.
                                for &v in vs {
                                    row_inputs.push((
                                        BlockGrid::partial_name(i, u, v),
                                        self.vec_bytes(u),
                                    ));
                                }
                            } else {
                                let qname = format!("q_{i}_{u}_{g}");
                                let mut t = TaskSpec::new(qname.clone(), "sum")
                                    .output(qname.clone(), self.vec_bytes(u))
                                    .flops(self.vec_bytes(u) / 8 * vs.len() as u64)
                                    .pin_to(g);
                                for &v in vs {
                                    t = t
                                        .input(BlockGrid::partial_name(i, u, v), self.vec_bytes(u));
                                }
                                if self.sync == SyncPolicy::PhaseBarriers {
                                    t = t.input(format!("bar_mul_{i}"), 8);
                                }
                                tasks.push(t);
                                row_inputs.push((qname, self.vec_bytes(u)));
                            }
                        }
                        let mut t = TaskSpec::new(
                            format!("x_{i}_{u}"),
                            if final_iter && self.persist_final {
                                "sum_final"
                            } else {
                                "sum"
                            },
                        )
                        .output(BlockGrid::vector_name(i, u), self.vec_bytes(u))
                        .flops(self.vec_bytes(u) / 8 * row_inputs.len() as u64)
                        .pin_to(self.row_root[u as usize]);
                        for (name, bytes) in row_inputs {
                            t = t.input(name, bytes);
                        }
                        if self.sync == SyncPolicy::PhaseBarriers {
                            t = t.input(format!("bar_mul_{i}"), 8);
                        }
                        tasks.push(t);
                    }
                }
            }
            if self.sync != SyncPolicy::None && i < self.iterations {
                // Between-iterations barrier over all row results.
                let mut bt = TaskSpec::new(format!("bar_iter_{i}"), "barrier")
                    .output(format!("bar_iter_{i}"), 8);
                for u in 0..k {
                    bt = bt.input(BlockGrid::vector_name(i, u), 8);
                }
                tasks.push(bt);
            }
        }

        let graph = TaskGraph::new(tasks).expect("generated SpMV DAG is valid");
        (graph, external, geometry)
    }

    /// The Fig. 3 command plan: the operations of the first `iters`
    /// iterations in the paper's notation.
    pub fn command_plan(&self, iters: u64) -> Vec<String> {
        let k = self.grid.k;
        let mut out = Vec::new();
        for i in 1..=iters.min(self.iterations) {
            for u in 0..k {
                for v in 0..k {
                    out.push(format!(
                        "x_{{{i}}}_{{{u},{v}}} = A_{{{u},{v}}} * x_{{{}}}_{{{v}}}",
                        i - 1
                    ));
                }
            }
            for u in 0..k {
                let parts: Vec<String> = (0..k).map(|v| format!("x_{{{i}}}_{{{u},{v}}}")).collect();
                out.push(format!("x_{{{i}}}_{{{u}}} = {}", parts.join(" + ")));
            }
        }
        out
    }

    /// Reads the persisted final vector back from the row roots' scratch
    /// directories (requires `persist_final`). Returns the assembled global
    /// vector.
    pub fn collect_final_vector(
        &self,
        scratch_dirs: &[std::path::PathBuf],
    ) -> std::io::Result<Vec<f64>> {
        let mut out = vec![0.0f64; self.grid.n as usize];
        for u in 0..self.grid.k {
            let node = self.row_root[u as usize];
            let name = BlockGrid::vector_name(self.iterations, u);
            let path = scratch_dirs[node as usize].join(format!("{name}@0"));
            let raw = std::fs::read(&path)?;
            let (s, _) = self.grid.range(u);
            for (j, c) in raw.chunks_exact(8).enumerate() {
                out[s as usize + j] = f64::from_le_bytes(c.try_into().expect("8 bytes"));
            }
        }
        Ok(out)
    }

    /// Reference computation: the same iterated product, in-core, from the
    /// same deterministic blocks. Used by tests and EXPERIMENTS.md checks.
    /// Each iteration's block rows are computed in parallel, at the host's
    /// parallelism; the result is bitwise the serial row loop's.
    pub fn reference_result(&self, gen: &GapGenerator, seed: u64, x0: &[f64]) -> Vec<f64> {
        self.reference_result_at(gen, seed, x0, host_parallelism())
    }

    /// [`Self::reference_result`] at an explicit `parallelism`. Block row
    /// `u` is one task of the fan-out and writes only `y_u`; within it the
    /// partials are added in `v` order, each thread regenerating the cells
    /// into one matrix it reuses.
    fn reference_result_at(
        &self,
        gen: &GapGenerator,
        seed: u64,
        x0: &[f64],
        parallelism: usize,
    ) -> Vec<f64> {
        let grid = &self.grid;
        let mut x = x0.to_vec();
        for _ in 0..self.iterations {
            let rows = fork_join_with(
                grid.k as usize,
                parallelism,
                || CsrMatrix::zeros(0, 0),
                |block, u| {
                    let u = u as u64;
                    let mut y = vec![0.0; grid.block_dim(u) as usize];
                    for v in 0..grid.k {
                        let (cs, ce) = grid.range(v);
                        grid.generate_block_into(gen, seed, BlockCoord { u, v }, block);
                        let part = block
                            .spmv(&x[cs as usize..ce as usize])
                            .expect("block dims");
                        for (yj, p) in y.iter_mut().zip(&part) {
                            *yj += p;
                        }
                    }
                    y
                },
            );
            x = rows.concat();
        }
        x
    }

    /// The grid.
    pub fn grid(&self) -> &BlockGrid {
        &self.grid
    }

    /// Iteration count.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

/// Executor for the SpMV task kinds.
///
/// Inputs are computed on where the storage layer holds them: the matrix and
/// the vector of a `multiply` and the partials of a `sum` are pinned, used
/// straight from their little-endian bytes, and handed back — the read
/// request / release pair of §III-B with the kernel in between, and no
/// decoded copy of a block in the task. A `multiply` writes its product and
/// a `sum` accumulates its partials the same way round: as stored bytes,
/// into a buffer of the node's pool that the storage layer then adopts as
/// the block. A matrix is checked once per residency of its blocks, on its
/// first multiply and for a matrix with fewer entries than rows by the very
/// walk that multiplies it; no product of bytes that fail the checks leaves
/// the task. The static audit charges a task's inputs as resident for its
/// whole execution, so holding the pins through the kernel claims no memory
/// the budget has not already granted.
pub struct SpmvExecutor;

impl SpmvExecutor {
    /// The inputs `execute` pins for `task`, step by step, each step's held
    /// together for its kernel: a multiply holds its vector and then its
    /// sub-matrix (pinned for the validation and the kernel only), a sum one
    /// partial at a time (a `bar_*` token is the DAG's dependency, not data),
    /// and a barrier nothing. The testbed replay runs the same steps.
    pub fn pin_steps(task: &TaskSpec) -> Vec<Vec<&DataRef>> {
        match task.kind.as_str() {
            "multiply" => vec![vec![&task.inputs[1], &task.inputs[0]]],
            "sum" | "sum_final" => task
                .inputs
                .iter()
                .filter(|d| !d.array.starts_with("bar_"))
                .map(|d| vec![d])
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Pins `name` and returns its bytes as one buffer with the view whose
    /// guards keep them resident: drop the view only when done computing.
    fn pin(
        ctx: &mut WorkerContext,
        name: &str,
    ) -> std::result::Result<(ArrayView, bytes::Bytes), String> {
        let view = ctx.read_view(name)?;
        let bytes = view.contiguous(ctx);
        Ok((view, bytes))
    }

    /// `y = A * x` for the matrix in `bytes`, the contents of `pin`. The
    /// first multiply of this residency of its blocks validates it as it
    /// multiplies ([`CsrBytes::new_multiplying`]) and, only once that is
    /// `Ok`, releases the view as checked; every later multiply that finds
    /// the blocks still carrying that mark takes the matrix on its header
    /// alone. No product of bytes that fail the checks leaves the task: on
    /// `Err` the caller drops `y`.
    fn multiply(
        pin: &mut ArrayView,
        bytes: bytes::Bytes,
        pool: &ComputePool,
        x: &[[u8; 8]],
        y: &mut [[u8; 8]],
    ) -> dooc_sparse::Result<()> {
        if pin.checked() {
            obs().matrix_checks_skipped.inc();
            let m = CsrBytes::already_validated(bytes)?;
            return pool.spmv(m.view(), x, y);
        }
        obs().matrix_checks.inc();
        CsrBytes::new_multiplying(bytes, pool, x, y)?;
        pin.mark_checked();
        Ok(())
    }

    /// [`Self::pin`] for a vector, whose bytes must be whole `f64`s.
    fn pin_f64s(
        ctx: &mut WorkerContext,
        name: &str,
    ) -> std::result::Result<(ArrayView, bytes::Bytes), String> {
        let (view, bytes) = Self::pin(ctx, name)?;
        if !bytes.len().is_multiple_of(8) {
            return Err(format!(
                "array '{name}' length {} not f64-aligned",
                bytes.len()
            ));
        }
        Ok((view, bytes))
    }
}

impl TaskExecutor for SpmvExecutor {
    fn execute(&self, task: &TaskSpec, ctx: &mut WorkerContext) -> ExecOutcome {
        let steps = Self::pin_steps(task);
        match task.kind.as_str() {
            "multiply" => {
                // Both inputs are multiplied where the storage layer holds
                // them, and the product is written, as the bytes it is
                // stored as, into the pooled buffer of the size the task
                // declares, which becomes its block.
                let (x_pin, x) = Self::pin_f64s(ctx, &steps[0][0].array)?;
                let (mut pin, bytes) = Self::pin(ctx, &steps[0][1].array)?;
                let len = task.outputs[0].bytes as usize;
                let mut out = ctx.output_buffer(len);
                out.resize(len, 0);
                let (y, _) = out.as_chunks_mut::<8>();
                Self::multiply(&mut pin, bytes, ctx.pool(), x.as_chunks::<8>().0, y).map_err(
                    |e| match e {
                        SparseError::DimensionMismatch { .. } => format!("spmv: {e}"),
                        e => format!("decode matrix: {e}"),
                    },
                )?;
                drop((pin, x_pin));
                ctx.write_bytes(&task.outputs[0].array, out.freeze())
            }
            "sum" | "sum_final" => {
                // The partials are folded into the pooled buffer that
                // becomes the output block, from their bytes and as bytes.
                // The first is copied in, not added to zeros: 0.0 + -0.0
                // would lose the sign.
                let mut partials = steps.iter().map(|step| step[0]);
                let first = partials.next().ok_or("sum with no data inputs")?;
                let (pin, x) = Self::pin_f64s(ctx, &first.array)?;
                let mut acc = ctx.output_buffer(x.len());
                acc.extend_from_slice(&x);
                drop(pin);
                for input in partials {
                    let (_pin, x) = Self::pin_f64s(ctx, &input.array)?;
                    if x.len() != acc.len() {
                        return Err(format!(
                            "array '{}' holds {} values, the sum so far {}",
                            input.array,
                            x.len() / 8,
                            acc.len() / 8
                        ));
                    }
                    ctx.pool().add_le(acc.as_chunks_mut::<8>().0, &x);
                }
                ctx.write_bytes(&task.outputs[0].array, acc.freeze())?;
                if task.kind == "sum_final" {
                    let name = task.outputs[0].array.clone();
                    ctx.storage()
                        .persist(&name)
                        .map_err(|e| format!("persist {name}: {e}"))?;
                }
                Ok(())
            }
            "barrier" => {
                // Dependencies carried by the DAG; just emit the token.
                ctx.write_array(&task.outputs[0].array, &[0u8; 8])
            }
            other => Err(format!("unknown SpMV task kind '{other}'")),
        }
    }
}

/// Standard block-to-node ownership used by the experiments: the K×K grid is
/// tiled by a √N×√N node grid, each node owning a (K/√N)×(K/√N) block of
/// sub-matrices ("each compute node is responsible from a block of 5*5
/// arrangement of sub-matrices").
pub fn tiled_owner(k: u64, nnodes: u64) -> impl Fn(BlockCoord) -> u64 {
    let side = (nnodes as f64).sqrt().round() as u64;
    assert_eq!(side * side, nnodes, "node count must be a perfect square");
    assert_eq!(k % side, 0, "grid dimension must divide by the node side");
    let per = k / side;
    move |c: BlockCoord| (c.u / per) * side + (c.v / per)
}

/// Row-striped ownership for node counts that are not perfect squares
/// (e.g. a 2-process cluster): block row `u` lives on node `u mod nnodes`.
/// Keeps each row's sub-matrices co-located with its row root, so vector
/// traffic stays row-local and only partial products cross nodes.
pub fn striped_owner(nnodes: u64) -> impl Fn(BlockCoord) -> u64 {
    assert!(nnodes > 0, "need at least one node");
    move |c: BlockCoord| c.u % nnodes
}

/// Convenience: path helper kept for examples/tests.
pub fn staged_matrix_path(dir: &Path, coord: BlockCoord) -> std::path::PathBuf {
    dir.join(BlockGrid::file_name(coord))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dooc_scheduler::{assign_affinity, LocalScheduler, NodeId, OrderPolicy};
    use dooc_sparse::fileio;
    use std::collections::HashSet;
    use std::path::PathBuf;

    /// A fresh directory under the system temp dir, unique per test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dooc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn staged(k: u64, nnodes: u64) -> (BlockGrid, Vec<StagedBlock>) {
        let grid = BlockGrid::new(k, k * 10);
        let owner = tiled_owner(k, nnodes);
        let blocks = grid
            .coords()
            .map(|coord| StagedBlock {
                coord,
                node: owner(coord),
                bytes: 1000,
                nnz: 100,
            })
            .collect();
        (grid, blocks)
    }

    #[test]
    fn task_counts_match_paper_fig3() {
        // 3x3 partitioning: "9 sub-matrix sub-vector multiplications and 6
        // sub-vector additions are necessary at each iteration" (k=3 -> 3
        // additions per iteration in our row-sum form; the paper's 6 counts
        // the two-operand adds of a binary tree: 3 rows x (k-1) adds).
        let (grid, blocks) = staged(3, 1);
        let app = SpmvAppBuilder::new(grid, 2, blocks)
            .reduction(ReductionPlan::RowRoot)
            .sync(SyncPolicy::None)
            .persist_final(false);
        let (graph, _, _) = app.build();
        let muls = graph
            .ids()
            .filter(|&i| graph.task(i).kind == "multiply")
            .count();
        let sums = graph
            .ids()
            .filter(|&i| graph.task(i).kind.starts_with("sum"))
            .count();
        assert_eq!(muls, 18, "9 multiplies per iteration x 2");
        assert_eq!(sums, 6, "3 row reductions per iteration x 2");
        // Binary-add count equivalence with the paper's 6 per iteration:
        // each row reduction of k=3 partials is 2 adds; 3 rows -> 6.
        let adds_per_iter: usize = (0..3).map(|_| 3 - 1).sum();
        assert_eq!(adds_per_iter, 6 / 3 * 3); // 6 two-operand additions
    }

    #[test]
    fn command_plan_matches_fig3_shape() {
        let (grid, blocks) = staged(3, 1);
        let app = SpmvAppBuilder::new(grid, 2, blocks);
        let plan = app.command_plan(2);
        assert_eq!(plan.len(), (9 + 3) * 2);
        assert_eq!(plan[0], "x_{1}_{0,0} = A_{0,0} * x_{0}_{0}");
        assert!(plan[9].starts_with("x_{1}_{0} = x_{1}_{0,0} + x_{1}_{0,1}"));
    }

    #[test]
    fn dependencies_match_fig4() {
        // Each sum depends on its row's multiplies; each multiply of
        // iteration 2 depends on the column's sum of iteration 1.
        let (grid, blocks) = staged(3, 1);
        let app = SpmvAppBuilder::new(grid, 2, blocks)
            .reduction(ReductionPlan::RowRoot)
            .sync(SyncPolicy::None)
            .persist_final(false);
        let (graph, _, _) = app.build();
        let find = |name: &str| {
            graph
                .ids()
                .find(|&i| graph.task(i).name == name)
                .unwrap_or_else(|| panic!("task {name} missing"))
        };
        let sum_1_0 = find("x_1_0");
        let preds: Vec<String> = graph
            .preds(sum_1_0)
            .iter()
            .map(|&p| graph.task(p).name.clone())
            .collect();
        assert_eq!(preds, vec!["x_1_0_0", "x_1_0_1", "x_1_0_2"]);
        let mul_2_1_2 = find("x_2_1_2");
        let preds: Vec<String> = graph
            .preds(mul_2_1_2)
            .iter()
            .map(|&p| graph.task(p).name.clone())
            .collect();
        assert_eq!(preds, vec!["x_1_2"], "multiply consumes column sum");
    }

    #[test]
    fn phase_barriers_serialize_phases() {
        let (grid, blocks) = staged(3, 1);
        let app = SpmvAppBuilder::new(grid, 2, blocks)
            .reduction(ReductionPlan::RowRoot)
            .sync(SyncPolicy::PhaseBarriers)
            .persist_final(false);
        let (graph, _, _) = app.build();
        // Every iteration-2 multiply depends (transitively) on every
        // iteration-1 sum through bar_iter_1.
        let find = |name: &str| graph.ids().find(|&i| graph.task(i).name == name).unwrap();
        let mul = find("x_2_0_0");
        let preds: Vec<String> = graph
            .preds(mul)
            .iter()
            .map(|&p| graph.task(p).name.clone())
            .collect();
        assert!(preds.contains(&"bar_iter_1".to_string()), "{preds:?}");
        let bar = find("bar_mul_1");
        assert_eq!(graph.preds(bar).len(), 9, "multiply barrier joins all");
    }

    #[test]
    fn sync_none_pipelines_iterations_and_the_iteration_barrier_does_not() {
        // The property pipelining exists for: once x_1_0 is done, every
        // multiply x_2_u_0 reading it is ready while rows 1 and 2 of
        // iteration 1 have not run at all; the iteration barrier holds
        // them back until the whole of x_1 exists.
        let ready_after_row_0 = |sync| -> Vec<String> {
            let (grid, blocks) = staged(3, 1);
            let (graph, _, _) = SpmvAppBuilder::new(grid, 2, blocks)
                .reduction(ReductionPlan::RowRoot)
                .sync(sync)
                .persist_final(false)
                .build();
            let find = |name: &str| graph.ids().find(|&i| graph.task(i).name == name).unwrap();
            let mut ls = LocalScheduler::new(&graph, graph.ids(), OrderPolicy::Fifo);
            for done in ["x_1_0_0", "x_1_0_1", "x_1_0_2", "x_1_0"] {
                ls.on_complete(&graph, find(done));
            }
            ls.planned_order(&graph, &HashSet::new())
                .into_iter()
                .map(|t| graph.task(t).name.clone())
                .collect()
        };
        let none = ready_after_row_0(SyncPolicy::None);
        for u in 0..3 {
            assert!(none.contains(&format!("x_2_{u}_0")), "{none:?}");
        }
        assert!(none.contains(&"x_1_1_0".to_string()), "row 1 still pending");
        let barrier = ready_after_row_0(SyncPolicy::IterationBarrier);
        assert!(
            !barrier.iter().any(|n| n.starts_with("x_2_")),
            "{barrier:?}"
        );
    }

    #[test]
    fn local_aggregation_adds_presum_tasks() {
        let (grid, blocks) = staged(4, 4); // 2x2 nodes, each owns 2x2 blocks
        let app = SpmvAppBuilder::new(grid, 1, blocks)
            .reduction(ReductionPlan::LocalAggregation)
            .sync(SyncPolicy::None)
            .persist_final(false);
        let (graph, _, _) = app.build();
        let qs: Vec<String> = graph
            .ids()
            .filter(|&i| graph.task(i).name.starts_with("q_"))
            .map(|i| graph.task(i).name.clone())
            .collect();
        // Row u spans 2 node groups of 2 blocks each -> 2 pre-sums per row.
        assert_eq!(qs.len(), 4 * 2, "{qs:?}");
        // The final row sum consumes the aggregates, not the raw partials.
        let find = |name: &str| graph.ids().find(|&i| graph.task(i).name == name).unwrap();
        let row = find("x_1_0");
        let inputs: Vec<&str> = graph
            .task(row)
            .inputs
            .iter()
            .map(|d| d.array.as_str())
            .collect();
        assert!(inputs.iter().all(|n| n.starts_with("q_")), "{inputs:?}");
        assert_eq!(inputs.len(), 2);
    }

    #[test]
    fn pre_sums_are_pinned_to_their_node() {
        let (grid, blocks) = staged(4, 4);
        let app = SpmvAppBuilder::new(grid, 1, blocks.clone())
            .reduction(ReductionPlan::LocalAggregation)
            .sync(SyncPolicy::None)
            .persist_final(false);
        let (graph, external, _) = app.build();
        let placement = assign_affinity(&graph, &external, 4).expect("placed");
        for id in graph.ids() {
            let t = graph.task(id);
            if t.name.starts_with("q_") {
                let g: u64 = t.name.rsplit('_').next().unwrap().parse().unwrap();
                assert_eq!(placement.node(id), NodeId(g as usize), "{} pinned", t.name);
            }
        }
    }

    /// The executor's pin order, per task kind, on a 2×2 grid with phase
    /// barriers: the sums read a `bar_mul` token, the second iteration's
    /// multiplies a `bar_iter` one, and the last iteration's sums are
    /// `sum_final`.
    #[test]
    fn each_task_kind_pins_its_inputs_in_the_executors_order() {
        let (grid, blocks) = staged(2, 1);
        let (graph, _, _) = SpmvAppBuilder::new(grid, 2, blocks)
            .reduction(ReductionPlan::RowRoot)
            .sync(SyncPolicy::PhaseBarriers)
            .build();
        let pins = |name: &str| -> (&str, Vec<Vec<String>>) {
            let task = graph
                .ids()
                .map(|i| graph.task(i))
                .find(|t| t.name == name)
                .unwrap_or_else(|| panic!("task {name} missing"));
            let steps = SpmvExecutor::pin_steps(task)
                .iter()
                .map(|step| step.iter().map(|d| d.array.clone()).collect())
                .collect();
            (task.kind.as_str(), steps)
        };
        let (x, partial) = (BlockGrid::vector_name, BlockGrid::partial_name);
        let matrix = |u, v| SpmvAppBuilder::matrix_array(BlockCoord { u, v });
        // A multiply pins its vector, then its sub-matrix, in one step.
        assert_eq!(
            pins("x_1_0_1"),
            ("multiply", vec![vec![x(0, 1), matrix(0, 1)]])
        );
        assert_eq!(
            pins("x_2_1_0"),
            ("multiply", vec![vec![x(1, 0), matrix(1, 0)]])
        );
        // A sum takes one partial per step and skips the barrier token.
        let two = |i, u| vec![vec![partial(i, u, 0)], vec![partial(i, u, 1)]];
        assert_eq!(pins("x_1_0"), ("sum", two(1, 0)));
        assert_eq!(pins("x_2_1"), ("sum_final", two(2, 1)));
        // A barrier pins nothing.
        assert_eq!(pins("bar_mul_1"), ("barrier", vec![]));
        assert_eq!(pins("bar_iter_1"), ("barrier", vec![]));
    }

    #[test]
    fn multiplies_placed_on_matrix_owners() {
        let (grid, blocks) = staged(4, 4);
        let app = SpmvAppBuilder::new(grid, 2, blocks.clone())
            .sync(SyncPolicy::None)
            .persist_final(false);
        let (graph, external, _) = app.build();
        let placement = assign_affinity(&graph, &external, 4).expect("placed");
        let owner = tiled_owner(4, 4);
        for id in graph.ids() {
            let t = graph.task(id);
            if t.kind == "multiply" {
                // name x_i_u_v
                let parts: Vec<u64> = t
                    .name
                    .split('_')
                    .skip(1)
                    .map(|p| p.parse().unwrap())
                    .collect();
                let c = BlockCoord {
                    u: parts[1],
                    v: parts[2],
                };
                assert_eq!(
                    placement.node(id),
                    NodeId(owner(c) as usize),
                    "{} follows its sub-matrix",
                    t.name
                );
            }
        }
    }

    #[test]
    fn tiled_owner_tiles() {
        let owner = tiled_owner(4, 4);
        assert_eq!(owner(BlockCoord { u: 0, v: 0 }), 0);
        assert_eq!(owner(BlockCoord { u: 0, v: 2 }), 1);
        assert_eq!(owner(BlockCoord { u: 2, v: 0 }), 2);
        assert_eq!(owner(BlockCoord { u: 3, v: 3 }), 3);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn tiled_owner_rejects_non_square() {
        let owner = tiled_owner(4, 3);
        let _ = owner(BlockCoord { u: 0, v: 0 });
    }

    #[test]
    fn staging_at_any_fan_out_is_the_serial_generate_and_encode_walk() {
        let gen = GapGenerator::with_d(3);
        let owner = striped_owner(2);
        for (k, n) in [(1, 7), (3, 10), (8, 400)] {
            let grid = BlockGrid::new(k, n);
            for par in [1, 2] {
                let tmp = scratch(&format!("stage-walk-{k}-{par}"));
                let dirs = [tmp.join("n0"), tmp.join("n1")];
                let staged = SpmvAppBuilder::stage_cells(
                    grid,
                    &gen,
                    11,
                    &owner,
                    |node| Some(dirs[node as usize].as_path()),
                    par,
                )
                .expect("stage");
                assert_eq!(staged.len() as u64, k * k);
                for (b, coord) in staged.iter().zip(grid.coords()) {
                    let m = grid.generate_block(&gen, 11, coord);
                    let want = fileio::to_bytes(&m);
                    assert_eq!(
                        (b.coord, b.node, b.bytes, b.nnz),
                        (coord, owner(coord), want.len() as u64, m.nnz()),
                        "K={k} at fan-out {par}"
                    );
                    let path = staged_matrix_path(&dirs[b.node as usize], coord);
                    let got = std::fs::read(&path).expect("staged file");
                    assert!(got == want, "{} at fan-out {par}", path.display());
                }
                std::fs::remove_dir_all(&tmp).expect("cleanup");
            }
        }
    }

    #[test]
    fn every_process_declares_the_sizes_the_owner_wrote() {
        let tmp = scratch("stage-local");
        let (grid, gen, owner) = (
            BlockGrid::new(3, 31),
            GapGenerator::with_d(2),
            striped_owner(2),
        );
        let dirs = [tmp.join("all-0"), tmp.join("all-1")];
        let all = SpmvAppBuilder::stage(&dirs, grid, &gen, 7, &owner).expect("stage");
        for me in 0..2 {
            let dir = tmp.join(format!("local-{me}"));
            let mine = SpmvAppBuilder::stage_local(&dir, me, grid, &gen, 7, &owner).expect("stage");
            assert_eq!(all.len(), mine.len());
            for (a, b) in all.iter().zip(&mine) {
                assert_eq!(
                    (a.coord, a.node, a.bytes, a.nnz),
                    (b.coord, b.node, b.bytes, b.nnz)
                );
                // Declared for every cell, on disk only for the owned ones,
                // and there the bytes `stage` wrote.
                let file = std::fs::read(staged_matrix_path(&dir, b.coord));
                let owned = std::fs::read(staged_matrix_path(&dirs[a.node as usize], a.coord));
                assert_eq!(file.ok(), (b.node == me).then(|| owned.expect("staged")));
            }
        }
        std::fs::remove_dir_all(&tmp).expect("cleanup");
    }

    #[test]
    fn a_scratch_dir_that_cannot_be_written_is_an_error_not_a_panic() {
        let tmp = scratch("stage-unwritable");
        std::fs::create_dir_all(&tmp).expect("tmp dir");
        let (grid, gen) = (BlockGrid::new(3, 30), GapGenerator::with_d(2));
        // A scratch "directory" that is a plain file: refused before any
        // cell is generated, by `stage` and by `stage_local` alike.
        let file = tmp.join("plain-file");
        std::fs::write(&file, b"not a directory").expect("plain file");
        let dirs = [file.clone()];
        assert!(SpmvAppBuilder::stage(&dirs, grid, &gen, 1, |_| 0).is_err());
        assert!(SpmvAppBuilder::stage_local(&file, 0, grid, &gen, 1, |_| 0).is_err());
        // A cell whose file name a directory holds fails inside the
        // fan-out; the error reaches the caller once every thread has
        // joined (the fan-out is scoped), whichever thread met it.
        let dir = tmp.join("squatted");
        std::fs::create_dir_all(staged_matrix_path(&dir, BlockCoord { u: 2, v: 2 }))
            .expect("squatter");
        for par in [1, 2, 3] {
            let err = SpmvAppBuilder::stage_cells(grid, &gen, 1, |_| 0, |_| Some(&dir), par)
                .expect_err("a cell's file cannot be created");
            assert!(matches!(err, SparseError::Io(_)), "{err}");
        }
        std::fs::remove_dir_all(&tmp).expect("cleanup");
    }

    /// The reference as a plain serial row loop over freshly generated
    /// blocks, partials added in `v` order.
    fn serial_reference(
        app: &SpmvAppBuilder,
        gen: &GapGenerator,
        seed: u64,
        x0: &[f64],
    ) -> Vec<f64> {
        let grid = app.grid;
        let mut x = x0.to_vec();
        for _ in 0..app.iterations {
            let mut y = vec![0.0; grid.n as usize];
            for coord in grid.coords() {
                let (rs, _) = grid.range(coord.u);
                let (cs, ce) = grid.range(coord.v);
                let part = grid
                    .generate_block(gen, seed, coord)
                    .spmv(&x[cs as usize..ce as usize])
                    .expect("block dims");
                for (j, p) in part.iter().enumerate() {
                    y[rs as usize + j] += p;
                }
            }
            x = y;
        }
        x
    }

    #[test]
    fn the_reference_at_any_fan_out_is_bitwise_the_serial_row_loop() {
        // K = 3 over 10 rows: block rows of 4, 3 and 3.
        let (grid, gen) = (BlockGrid::new(3, 10), GapGenerator::with_d(2));
        let blocks = grid
            .coords()
            .map(|coord| StagedBlock {
                coord,
                node: 0,
                bytes: 0,
                nnz: 0,
            })
            .collect();
        let app = SpmvAppBuilder::new(grid, 4, blocks);
        let x0: Vec<f64> = (0..10).map(|i| (i as f64 * 0.37).cos() - 0.2).collect();
        let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let want = bits(serial_reference(&app, &gen, 3, &x0));
        for par in [1, 2, 3, 4] {
            assert_eq!(
                bits(app.reference_result_at(&gen, 3, &x0, par)),
                want,
                "{par}"
            );
        }
        assert_eq!(bits(app.reference_result(&gen, 3, &x0)), want);
    }

    #[test]
    fn reference_result_matches_manual() {
        let grid = BlockGrid::new(2, 8);
        let gen = GapGenerator::with_d(2);
        let blocks: Vec<StagedBlock> = grid
            .coords()
            .map(|coord| {
                let m = grid.generate_block(&gen, 5, coord);
                StagedBlock {
                    coord,
                    node: 0,
                    bytes: fileio::to_bytes(&m).len() as u64,
                    nnz: m.nnz(),
                }
            })
            .collect();
        let app = SpmvAppBuilder::new(grid, 2, blocks);
        let x0: Vec<f64> = (0..8).map(|i| i as f64 + 1.0).collect();
        let got = app.reference_result(&gen, 5, &x0);
        // Manual: assemble the full matrix from blocks and iterate.
        let mut full = Vec::new();
        for coord in grid.coords() {
            let b = grid.generate_block(&gen, 5, coord);
            let (rs, _) = grid.range(coord.u);
            let (cs, _) = grid.range(coord.v);
            for (r, c, v) in b.triplets() {
                full.push((rs + r, cs + c, v));
            }
        }
        let a = dooc_sparse::CsrMatrix::from_triplets(8, 8, &full).expect("assembled");
        let x1 = a.spmv(&x0).expect("dims");
        let x2 = a.spmv(&x1).expect("dims");
        for (g, w) in got.iter().zip(&x2) {
            assert!((g - w).abs() < 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }
    }
}
