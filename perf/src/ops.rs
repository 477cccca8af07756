//! The four workloads, the one-factorization runner they share, the seeded
//! input streams, and the correctness gate every operation passes through.

use crate::stats::SplitMix64;
use sbc_dist::{comm, SbcExtended, TwoDBlockCyclic};
use sbc_kernels::KernelBackend;
use sbc_matrix::{potrf_tiled, random_spd, SymmetricTiledMatrix};
use sbc_net::{local_mesh, Backend, PoolStats, Session, Transport, TransportStats};
use sbc_obs::Recorder;
use sbc_planner::{Op, Planner};
use sbc_runtime::{Run, RunOutput};
use sbc_serve::{JobReply, ServeConfig};
use sbc_simgrid::Platform;
use std::time::Instant;

/// Ranks of every one-shot factorization: SBC extended r=4 and 2DBC 3x2
/// both use six.
pub const RANKS: usize = 6;

/// Matrix seeds a `potrf-*` run draws from; their sequential factors are
/// computed before timing starts.
pub const POOL: usize = 4;

/// Matrix seeds per job shape in a served mix.
pub const SERVE_POOL: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub nt: usize,
    pub b: usize,
}

impl Shape {
    pub const fn new(nt: usize, b: usize) -> Shape {
        Shape { nt, b }
    }

    pub fn n(&self) -> usize {
        self.nt * self.b
    }

    /// `n^3 / 3`, the flop count the paper's GFlop/s axis divides by.
    pub fn flops(&self) -> f64 {
        (self.n() as f64).powi(3) / 3.0
    }
}

/// How the six ranks of a one-shot factorization talk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesh {
    /// `Run::execute`: rank threads over in-process channels.
    InProc,
    /// `Run::execute_rank` per thread over `local_mesh(Backend::Uds, 6)`.
    Uds,
    /// The same with every endpoint wrapped in a reliability `Session`.
    UdsSession,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// `SbcExtended::new(4)` — what every workload runs.
    Sbc,
    /// `TwoDBlockCyclic::new(3, 2)` — the paper's comparison, same P.
    Bc,
}

/// One way of running one factorization. `kernels: None` leaves `Run` at
/// its library default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    pub shape: Shape,
    pub mesh: Mesh,
    pub dist: Dist,
    pub kernels: Option<KernelBackend>,
}

impl Config {
    pub fn with_dist(self, dist: Dist) -> Config {
        Config { dist, ..self }
    }

    pub fn with_kernels(self, kernels: KernelBackend) -> Config {
        Config {
            kernels: Some(kernels),
            ..self
        }
    }

    pub fn with_mesh(self, mesh: Mesh) -> Config {
        Config { mesh, ..self }
    }
}

/// The two job shapes of a served mix: four in five jobs are `small`. A
/// single-shape mix has them equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub small: Shape,
    pub large: Shape,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One factorization per operation, under `Config`.
    Potrf(Config),
    /// One served job per operation, drawn from `Mix`.
    Serve(Mix),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// Closed-loop client connections of `serve-stream`. One: with two, half of
/// the small jobs overlap a large one, the median latency sits on the
/// shoulder between the two cases, and its spread over ten runs doubles.
pub const CLIENTS: usize = 1;

const fn potrf(
    name: &'static str,
    nt: usize,
    b: usize,
    mesh: Mesh,
    kernels: Option<KernelBackend>,
) -> Workload {
    Workload {
        name,
        kind: Kind::Potrf(Config {
            shape: Shape::new(nt, b),
            mesh,
            dist: Dist::Sbc,
            kernels,
        }),
    }
}

/// The workloads, in the order of `metrics::WORKLOADS`.
pub const WORKLOADS: [Workload; 4] = [
    potrf("potrf-compute", 12, 128, Mesh::InProc, None),
    potrf("potrf-tasks", 64, 4, Mesh::InProc, None),
    // kernels pinned fast so that the wire, not the flops, sets its time
    potrf(
        "potrf-wire",
        20,
        64,
        Mesh::UdsSession,
        Some(KernelBackend::Blocked),
    ),
    Workload {
        name: "serve-stream",
        kind: Kind::Serve(Mix {
            small: Shape::new(12, 32),
            large: Shape::new(8, 128),
        }),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The one-shot configuration the layer probes run: the workload's own
    /// for `potrf-*`; for a served mix, `Run` in-process at the large shape,
    /// where most of the mix's flops are.
    pub fn probe_config(&self) -> Config {
        match self.kind {
            Kind::Potrf(cfg) => cfg,
            Kind::Serve(mix) => Config {
                shape: mix.large,
                mesh: Mesh::InProc,
                dist: Dist::Sbc,
                kernels: None,
            },
        }
    }

    /// The mix the served probes run: the workload's own, or a single-shape
    /// mix of a `potrf-*` workload's shape.
    pub fn probe_mix(&self) -> Mix {
        match self.kind {
            Kind::Potrf(cfg) => Mix {
                small: cfg.shape,
                large: cfg.shape,
            },
            Kind::Serve(mix) => mix,
        }
    }
}

// ---------------------------------------------------------------- inputs

/// `n` matrix seeds derived from the run's `--seed`; `tag` separates pools.
pub fn matrix_seeds(seed: u64, tag: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
    (0..n).map(|_| rng.next_u64() >> 16).collect()
}

/// The pool index each successive factorization uses.
pub fn rep_stream(seed: u64) -> impl Iterator<Item = usize> {
    let mut rng = SplitMix64::new(seed ^ 0x05EE_D0FB);
    std::iter::repeat_with(move || rng.below(POOL as u64) as usize)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub large: bool,
    /// Index into the shape's seed pool.
    pub pool_index: usize,
}

/// The jobs one client submits, in order. Exactly one job of every five is
/// large, at a seeded place among the five: the mix a run completes is then
/// 80/20 whatever the seed, and throughput does not move with the draw.
pub fn job_stream(seed: u64, client: usize) -> impl Iterator<Item = Job> {
    let mut rng = SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let (mut place, mut large_at) = (0, 0);
    std::iter::repeat_with(move || {
        if place == 0 {
            large_at = rng.below(5);
        }
        let job = Job {
            large: place == large_at,
            pool_index: rng.below(SERVE_POOL as u64) as usize,
        };
        place = (place + 1) % 5;
        job
    })
}

// ------------------------------------------------------ correctness gate

/// A seeded input's sequential factor: what every operation on that seed
/// must reproduce bit for bit.
pub struct Reference {
    pub seed: u64,
    pub factor: SymmetricTiledMatrix,
}

pub fn reference(shape: Shape, seed: u64) -> Reference {
    let mut factor = random_spd(seed, shape.nt, shape.b);
    potrf_tiled(&mut factor).expect("seeded SPD input factors");
    Reference { seed, factor }
}

/// Largest residual a reference factor may have.
pub const RESIDUAL_LIMIT: f64 = 1e-12;

/// The references of a seed pool, each checked once against its own input
/// by [`residual`] — a bit-identical copy of a wrong factor must not pass.
pub fn references(shape: Shape, seeds: &[u64]) -> Result<Vec<Reference>, String> {
    seeds
        .iter()
        .map(|&seed| {
            let r = reference(shape, seed);
            let res = residual(&r);
            if res < RESIDUAL_LIMIT {
                Ok(r)
            } else {
                Err(format!(
                    "sequential factor of seed {seed} has residual {res}"
                ))
            }
        })
        .collect()
}

/// `|A x - L (L^T x)| / (|A|_F |x|)` for a seeded probe vector `x`: an
/// O(n^2) residual, cheap enough to run once per seed at every shape.
pub fn residual(reference: &Reference) -> f64 {
    let l = &reference.factor;
    let (nt, b) = (l.tile_count(), l.tile_dim());
    let a = random_spd(reference.seed, nt, b);
    let n = nt * b;
    let mut rng = SplitMix64::new(reference.seed);
    let x: Vec<f64> = (0..n).map(|_| rng.centered()).collect();
    // element (r, c) of the lower triangle, r >= c
    let lower =
        |m: &SymmetricTiledMatrix, r: usize, c: usize| m.tile(r / b, c / b).get(r % b, c % b);
    let mut ltx = vec![0.0; n]; // L^T x
    let mut ax = vec![0.0; n]; // A x, A symmetric from its lower triangle
    for r in 0..n {
        for c in 0..=r {
            ltx[c] += lower(l, r, c) * x[r];
            let arc = lower(&a, r, c);
            ax[r] += arc * x[c];
            if r != c {
                ax[c] += arc * x[r];
            }
        }
    }
    let err: f64 = ax
        .iter()
        .enumerate()
        .map(|(r, ax_r)| {
            let llx: f64 = (0..=r).map(|c| lower(l, r, c) * ltx[c]).sum();
            (ax_r - llx).powi(2)
        })
        .sum();
    let norm_x = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    err.sqrt() / (a.norm_fro() * norm_x)
}

/// Exact communication a factorization must measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub messages: u64,
    pub bytes: u64,
}

/// Analytic `sbc_dist::comm` counts for a one-shot factorization.
pub fn expect(dist: Dist, shape: Shape) -> Expect {
    let messages = match dist {
        Dist::Sbc => comm::potrf_messages(&SbcExtended::new(4), shape.nt),
        Dist::Bc => comm::potrf_messages(&TwoDBlockCyclic::new(3, 2), shape.nt),
    };
    Expect {
        messages,
        bytes: comm::messages_to_bytes(messages, shape.b),
    }
}

/// Analytic counts for a served job: those of the distribution the
/// service's planner (same platform, same configuration) picks.
pub fn expect_served(config: &ServeConfig, shape: Shape) -> Expect {
    let planner = Planner::with_config(Platform::bora(config.nodes), config.planner);
    let messages = planner
        .plan(Op::Potrf, shape.nt, shape.b)
        .choice
        .messages(Op::Potrf, shape.nt);
    Expect {
        messages,
        bytes: comm::messages_to_bytes(messages, shape.b),
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn check_comm(messages: u64, bytes: u64, expect: &Expect) -> Result<(), String> {
    if (messages, bytes) == (expect.messages, expect.bytes) {
        Ok(())
    } else {
        Err(format!(
            "moved {messages} messages / {bytes} bytes, analytic {} / {}",
            expect.messages, expect.bytes
        ))
    }
}

/// A factor passes when it is bit-identical to the reference and the
/// communication measured beside it equals the analytic counts.
pub fn check_factor(
    factor: &SymmetricTiledMatrix,
    messages: u64,
    bytes: u64,
    reference: &Reference,
    expect: &Expect,
) -> Result<(), String> {
    check_comm(messages, bytes, expect)?;
    for (i, j) in reference.factor.tile_coords() {
        if !same_bits(
            factor.tile(i, j).as_slice(),
            reference.factor.tile(i, j).as_slice(),
        ) {
            return Err(format!("tile ({i},{j}) differs from the sequential factor"));
        }
    }
    Ok(())
}

pub fn check_run(output: &RunOutput, reference: &Reference, expect: &Expect) -> Result<(), String> {
    let stats = &output.stats;
    check_factor(
        output.factor(),
        stats.messages,
        stats.bytes,
        reference,
        expect,
    )
}

/// A served job passes when it was not refused or failed, and its reply
/// holds exactly the reference's lower tiles and the analytic counts.
pub fn check_reply(reply: &JobReply, reference: &Reference, expect: &Expect) -> Result<(), String> {
    let (messages, bytes, tiles) = match reply {
        JobReply::Done {
            messages,
            bytes,
            tiles,
            ..
        } => (*messages, *bytes, tiles),
        JobReply::Rejected(why) => return Err(format!("rejected: {why}")),
        JobReply::Failed(why) => return Err(format!("failed: {why}")),
    };
    check_comm(messages, bytes, expect)?;
    let nt = reference.factor.tile_count();
    if tiles.len() != nt * (nt + 1) / 2 {
        return Err(format!("reply holds {} tiles", tiles.len()));
    }
    for (tile_ref, tile) in tiles {
        let ok = match *tile_ref {
            sbc_taskgraph::TileRef::A {
                phase: 0,
                slice: 0,
                i,
                j,
            } if j <= i && (i as usize) < nt => same_bits(
                tile.as_slice(),
                reference.factor.tile(i as usize, j as usize).as_slice(),
            ),
            _ => false,
        };
        if !ok {
            return Err(format!("{tile_ref:?} differs from the sequential factor"));
        }
    }
    Ok(())
}

/// Operations attempted and failed. An operation fails on any error,
/// refusal, wrong factor or wrong count.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Gate {
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

// ---------------------------------------------------------------- runner

/// Wire-level accounting summed over the six endpoints of a socket mesh.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTotals {
    pub stats: TransportStats,
    pub pool: PoolStats,
}

impl WireTotals {
    fn add(&mut self, stats: TransportStats, pool: PoolStats) {
        let s = &mut self.stats;
        s.sent_messages += stats.sent_messages;
        s.sent_payload_bytes += stats.sent_payload_bytes;
        s.sent_frame_bytes += stats.sent_frame_bytes;
        s.retrans_messages += stats.retrans_messages;
        s.control_bytes += stats.control_bytes;
        self.pool.hits += pool.hits;
        self.pool.misses += pool.misses;
    }
}

pub struct Outcome {
    /// Constructor through `execute`, or mesh connect through the last
    /// rank's join. Mesh teardown is outside.
    pub secs: f64,
    pub output: RunOutput,
    /// `None` in-process, where nothing is serialized.
    pub wire: Option<WireTotals>,
}

fn build<'a>(cfg: &Config, seed: u64, recorder: Option<&'a Recorder>) -> Run<'a> {
    let nt = cfg.shape.nt;
    let run = match cfg.dist {
        Dist::Sbc => Run::potrf(&SbcExtended::new(4), nt),
        Dist::Bc => Run::potrf(&TwoDBlockCyclic::new(3, 2), nt),
    };
    let run = run.block(cfg.shape.b).seed(seed);
    let run = match cfg.kernels {
        Some(k) => run.kernels(k),
        None => run,
    };
    match recorder {
        Some(r) => run.recorder(r),
        None => run,
    }
}

/// One rank per thread over `mesh`; rank 0's gathered output.
fn over_mesh<T: Transport>(
    mesh: &[T],
    cfg: &Config,
    seed: u64,
    recorder: Option<&Recorder>,
) -> Result<RunOutput, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = mesh
            .iter()
            .map(|net| scope.spawn(move || build(cfg, seed, recorder).execute_rank(net)))
            .collect();
        let mut gathered = Err("rank 0 gathered nothing".to_string());
        let mut failure = None;
        for h in handles {
            match h.join() {
                Ok(Ok(Some(out))) => gathered = Ok(out),
                Ok(Ok(None)) => {}
                Ok(Err(e)) => failure = Some(e.to_string()),
                Err(_) => failure = Some("rank thread panicked".to_string()),
            }
        }
        match failure {
            Some(why) => Err(why),
            None => gathered,
        }
    })
}

/// The socket-mesh half of [`factorize`]: `start` was taken before the mesh
/// connected; the clock stops at the last rank's join, before teardown.
fn over_sockets<T: Transport>(
    start: Instant,
    mesh: &[T],
    pool_stats: impl Fn(&T) -> PoolStats,
    cfg: &Config,
    seed: u64,
    recorder: Option<&Recorder>,
) -> Result<Outcome, String> {
    let output = over_mesh(mesh, cfg, seed, recorder)?;
    let secs = start.elapsed().as_secs_f64();
    let mut wire = WireTotals::default();
    for t in mesh {
        wire.add(t.stats(), pool_stats(t));
    }
    Ok(Outcome {
        secs,
        output,
        wire: Some(wire),
    })
}

/// Runs one factorization of the seeded matrix under `cfg` and times it.
pub fn factorize(cfg: &Config, seed: u64, recorder: Option<&Recorder>) -> Result<Outcome, String> {
    let start = Instant::now();
    if cfg.mesh == Mesh::InProc {
        let output = build(cfg, seed, recorder)
            .execute()
            .map_err(|e| e.to_string())?;
        return Ok(Outcome {
            secs: start.elapsed().as_secs_f64(),
            output,
            wire: None,
        });
    }
    let mesh = local_mesh(Backend::Uds, RANKS).map_err(|e| format!("uds mesh: {e}"))?;
    if cfg.mesh == Mesh::Uds {
        over_sockets(start, &mesh, |t| t.pool_stats(), cfg, seed, recorder)
    } else {
        let mesh: Vec<_> = mesh.into_iter().map(Session::new).collect();
        over_sockets(
            start,
            &mesh,
            |t| t.inner().pool_stats(),
            cfg,
            seed,
            recorder,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Config = Config {
        shape: Shape::new(6, 8),
        mesh: Mesh::InProc,
        dist: Dist::Sbc,
        kernels: None,
    };

    #[test]
    fn same_seed_gives_the_same_inputs_and_another_seed_different_ones() {
        let reps = |s| rep_stream(s).take(64).collect::<Vec<_>>();
        let jobs = |s, c| job_stream(s, c).take(64).collect::<Vec<_>>();
        assert_eq!(matrix_seeds(9, 1, POOL), matrix_seeds(9, 1, POOL));
        assert_eq!(reps(9), reps(9));
        assert_eq!(jobs(9, 0), jobs(9, 0));
        assert_ne!(matrix_seeds(9, 1, POOL), matrix_seeds(10, 1, POOL));
        assert_ne!(matrix_seeds(9, 1, POOL), matrix_seeds(9, 2, POOL));
        assert_ne!(reps(9), reps(10));
        assert_ne!(jobs(9, 0), jobs(9, 1));
        assert_ne!(jobs(9, 0), jobs(10, 0));
        assert!(reps(9).iter().all(|&i| i < POOL));
    }

    #[test]
    fn the_mix_is_exactly_one_fifth_large_and_uses_the_whole_pool() {
        let jobs: Vec<Job> = job_stream(3, 0).take(4000).collect();
        for five in jobs.chunks(5) {
            assert_eq!(five.iter().filter(|j| j.large).count(), 1);
        }
        // ... at a place that varies
        let places: std::collections::BTreeSet<usize> = jobs
            .chunks(5)
            .map(|five| five.iter().position(|j| j.large).unwrap())
            .collect();
        assert_eq!(places.len(), 5);
        for k in 0..SERVE_POOL {
            assert!(jobs.iter().any(|j| j.pool_index == k));
        }
    }

    #[test]
    fn a_correct_factorization_passes_and_a_corrupted_reference_fails_the_gate() {
        let seed = matrix_seeds(1, 0, 1)[0];
        let mut good = reference(TINY.shape, seed);
        let want = expect(Dist::Sbc, TINY.shape);
        let out = factorize(&TINY, seed, None).unwrap();
        let mut gate = Gate::default();
        gate.record(check_run(&out.output, &good, &want));
        assert_eq!(
            (gate.attempted, gate.failed),
            (1, 0),
            "{:?}",
            gate.first_failure
        );
        assert!(residual(&good) < 1e-12);

        // one flipped mantissa bit in one element of the reference
        let t = good.factor.tile_mut(3, 1);
        let v = t.get(2, 5);
        t.set(2, 5, f64::from_bits(v.to_bits() ^ 1));
        gate.record(check_run(&out.output, &good, &want));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert!(gate.first_failure.as_deref().unwrap().contains("(3,1)"));

        // a wrong analytic count fails it too
        let good = reference(TINY.shape, seed);
        let off = Expect {
            messages: want.messages + 1,
            ..want
        };
        gate.record(check_run(&out.output, &good, &off));
        assert_eq!((gate.attempted, gate.failed), (3, 2));
    }

    #[test]
    fn a_served_reply_is_gated_like_a_run() {
        let seed = 77;
        let shape = Shape::new(4, 8);
        let good = reference(shape, seed);
        let want = Expect {
            messages: 5,
            bytes: 5 * 512,
        };
        let tiles: Vec<_> = good
            .factor
            .tile_coords()
            .map(|(i, j)| {
                let r = sbc_taskgraph::TileRef::A {
                    phase: 0,
                    slice: 0,
                    i: i as u32,
                    j: j as u32,
                };
                (r, good.factor.tile(i, j).clone())
            })
            .collect();
        let done = |messages, tiles| JobReply::Done {
            messages,
            bytes: 5 * 512,
            elapsed: std::time::Duration::from_millis(1),
            plan_cached: true,
            tiles,
        };
        assert!(check_reply(&done(5, tiles.clone()), &good, &want).is_ok());
        assert!(check_reply(&done(6, tiles.clone()), &good, &want).is_err());
        assert!(check_reply(&done(5, tiles[1..].to_vec()), &good, &want).is_err());
        let mut bent = tiles.clone();
        bent[2].1.set(0, 0, 1.0);
        assert!(check_reply(&done(5, bent), &good, &want).is_err());
        assert!(check_reply(&JobReply::Rejected("full".into()), &good, &want).is_err());
        assert!(check_reply(&JobReply::Failed("boom".into()), &good, &want).is_err());
    }

    #[test]
    fn every_workload_is_registered_under_the_same_name_in_the_same_order() {
        let here: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let there: Vec<&str> = crate::metrics::WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(here, there);
    }
}
