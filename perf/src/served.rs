//! Driving `sbc-serve` from this process: the service and its socket front
//! on a thread, closed-loop clients, and the seeded mix they submit. Shared
//! by the `serve-stream` workload and the traced pass's `serve.*` probes.

use crate::ops::{
    check_reply, expect_served, matrix_seeds, references, Expect, Gate, Job, Mix, Reference, Shape,
    CLIENTS, SERVE_POOL,
};
use sbc_serve::{serve, Client, JobReply, JobRequest, ServeConfig, Service};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One job shape of a mix with its seed pool, the pool's sequential
/// factors and the analytic counts of a job of that shape.
pub struct ShapePool {
    pub shape: Shape,
    pub references: Vec<Reference>,
    pub expect: Expect,
}

/// Everything precomputed for a mix, outside every timed window.
pub struct Pools {
    pub small: ShapePool,
    /// `None` for a single-shape mix.
    pub large: Option<ShapePool>,
}

impl Pools {
    /// References for the first `count` seeds of each shape's pool.
    pub fn prepare(
        mix: Mix,
        seed: u64,
        config: &ServeConfig,
        count: usize,
    ) -> Result<Pools, String> {
        let pool = |shape: Shape, tag: u64| {
            Ok::<_, String>(ShapePool {
                shape,
                references: references(shape, &matrix_seeds(seed, tag, SERVE_POOL)[..count])?,
                expect: expect_served(config, shape),
            })
        };
        Ok(Pools {
            small: pool(mix.small, 1)?,
            large: if mix.large != mix.small {
                Some(pool(mix.large, 2)?)
            } else {
                None
            },
        })
    }

    pub fn of(&self, large: bool) -> &ShapePool {
        match (&self.large, large) {
            (Some(pool), true) => pool,
            _ => &self.small,
        }
    }

    pub fn each(&self) -> impl Iterator<Item = &ShapePool> {
        std::iter::once(&self.small).chain(&self.large)
    }
}

/// A started service with its socket front running on a thread.
pub struct Served {
    pub service: Arc<Service>,
    pub addr: String,
    front: JoinHandle<std::io::Result<()>>,
}

impl Served {
    /// `Service::start(ServeConfig::default())` plus `serve()` on `addr`.
    pub fn start(addr: String) -> Served {
        let service = Service::start(ServeConfig::default());
        let front = {
            let (service, addr) = (Arc::clone(&service), addr.clone());
            std::thread::spawn(move || serve(service, &addr))
        };
        Served {
            service,
            addr,
            front,
        }
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Asks the front to drain and waits for it and the resident mesh to
    /// end. Every other client must have been dropped: the front joins its
    /// connection handlers, and each waits for its client to hang up.
    pub fn stop(self) -> Result<(), String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown request: {e}"))?;
        match self.front.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve loop: {e}")),
            Err(_) => Err("serve thread panicked".to_string()),
        }
    }
}

/// One served job as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub large: bool,
    /// Seconds around `Client::submit`.
    pub latency: f64,
    /// The engine's own admission-to-completion time from the reply.
    pub engine: f64,
    /// Payload bytes the reply says the job moved.
    pub bytes: u64,
}

/// Submits one job, times it, and gates the reply. `None` when the job did
/// not complete (the gate then holds the reason).
pub fn submit(
    client: &mut Client,
    pool: &ShapePool,
    index: usize,
    large: bool,
    gate: &mut Gate,
) -> Option<Sample> {
    let reference = &pool.references[index];
    let request = JobRequest::potrf(pool.shape.nt, pool.shape.b, reference.seed);
    let start = Instant::now();
    let answer = client.submit(&request);
    let latency = start.elapsed().as_secs_f64();
    let reply = match answer {
        Ok(mut replies) if replies.len() == 1 => replies.remove(0),
        Ok(replies) => {
            gate.record(Err(format!("{} answers to one job", replies.len())));
            return None;
        }
        Err(e) => {
            gate.record(Err(e.to_string()));
            return None;
        }
    };
    gate.record(check_reply(&reply, reference, &pool.expect));
    match reply {
        JobReply::Done { elapsed, bytes, .. } => Some(Sample {
            large,
            latency,
            engine: elapsed.as_secs_f64(),
            bytes,
        }),
        _ => None,
    }
}

/// Program set-up as a caller of the service pays it: start, bind, connect
/// every client, and the first job of each shape (cold plan, cold graph).
pub struct Warm {
    pub served: Served,
    pub clients: Vec<Client>,
    /// Start through the last first job.
    pub setup_secs: f64,
    /// The first (cold) job's latency, small shape.
    pub first_job_secs: f64,
    /// One completed job per shape, in `Pools::each` order.
    pub first_jobs: Vec<Sample>,
}

pub fn warm_start(addr: String, pools: &Pools, gate: &mut Gate) -> Result<Warm, String> {
    let start = Instant::now();
    let served = Served::start(addr);
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(served.connect()?);
    }
    let mut first_jobs = Vec::new();
    for (k, pool) in pools.each().enumerate() {
        let sample = submit(&mut clients[0], pool, 0, k == 1, gate)
            .ok_or_else(|| format!("first job failed: {:?}", gate.first_failure))?;
        first_jobs.push(sample);
    }
    Ok(Warm {
        served,
        clients,
        setup_secs: start.elapsed().as_secs_f64(),
        first_job_secs: first_jobs[0].latency,
        first_jobs,
    })
}

/// Each client submits the next jobs of its stream, one at a time, until
/// `seconds` have passed: a closed loop, because `Client::submit` blocks
/// for its reply as a batch caller does. Every client finishes the job it
/// is in, so none is in flight on return. Returns each client's samples.
pub fn closed_loop(
    clients: &mut [Client],
    streams: &mut [impl Iterator<Item = Job> + Send],
    pools: &Pools,
    seconds: f64,
    gate: &mut Gate,
) -> Vec<Vec<Sample>> {
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Gate)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let mut gate = Gate::default();
                    let mut samples = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let job = stream.next().expect("job streams never end");
                        let pool = pools.of(job.large);
                        samples.extend(submit(client, pool, job.pool_index, job.large, &mut gate));
                    }
                    (samples, gate)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    per_client
        .into_iter()
        .map(|(samples, g)| {
            gate.merge(g);
            samples
        })
        .collect()
}

/// Jobs per second of a closed loop: each client's completed jobs over the
/// seconds it spent inside `submit`, summed over clients — the time a
/// client spends checking a factor is not the service's.
pub fn jobs_per_second(per_client: &[Vec<Sample>]) -> f64 {
    per_client
        .iter()
        .filter(|samples| !samples.is_empty())
        .map(|samples| samples.len() as f64 / samples.iter().map(|s| s.latency).sum::<f64>())
        .sum()
}
