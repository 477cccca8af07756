//! The multi-process launcher: one OS process per rank over localhost.
//!
//! [`launch`] is re-entrant: the *root* invocation (no [`ENV_RANK`] in the
//! environment) binds a rendezvous listener, re-execs its own binary once
//! per worker rank with the rendezvous address in the environment, collects
//! each worker's listener address, broadcasts the full table, and meshes up
//! as rank 0. A *worker* invocation (spawned by root) binds its own
//! listener, reports it over the rendezvous connection, waits for the
//! table, and meshes up as its assigned rank. After that every rank —
//! parent and children alike — holds an equivalent [`StreamTransport`].
//!
//! Port assignment is race-free by construction: every listener binds an
//! ephemeral address first and only then announces it; nothing is ever
//! "reserved" and re-bound.

use crate::msg::NodeId;
use crate::sock::{connect_retry, Backend, Listener};
use crate::stream::{MeshBuilder, StreamTransport, CONNECT_TIMEOUT};
use crate::wire::{self, Frame};
use std::io;
use std::process::{Child, Command};

/// Environment variable carrying a worker's rank (its absence marks root).
pub(crate) const ENV_RANK: &str = "SBC_NET_RANK";
/// Environment variable carrying the mesh size.
pub(crate) const ENV_NODES: &str = "SBC_NET_NODES";
/// Environment variable carrying the backend name (`tcp` / `uds`).
pub(crate) const ENV_BACKEND: &str = "SBC_NET_BACKEND";
/// Environment variable carrying the root's rendezvous address.
pub(crate) const ENV_ROOT: &str = "SBC_NET_ROOT";

/// What this process became after [`launch`].
pub enum Role {
    /// The parent process: rank 0 plus handles on every spawned worker.
    Root {
        /// Rank 0's mesh endpoint.
        net: StreamTransport,
        /// The spawned worker processes (ranks `1..nodes`), to be reaped
        /// with [`wait_children`] after the run.
        children: Vec<Child>,
    },
    /// A spawned worker process: just its mesh endpoint.
    Worker {
        /// This worker's mesh endpoint.
        net: StreamTransport,
    },
}

fn env_parse<T: std::str::FromStr>(key: &str) -> io::Result<T> {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, format!("bad or missing {key}")))
}

fn worker(nodes: usize, backend: Backend, rank: NodeId) -> io::Result<StreamTransport> {
    let root_addr: String = env_parse(ENV_ROOT)?;
    let builder = MeshBuilder::bind(backend, rank, nodes)?;

    let mut rendezvous = connect_retry(&root_addr, CONNECT_TIMEOUT)?;
    wire::write_frame(
        &mut rendezvous,
        &Frame::Addr {
            src: rank,
            addr: builder.addr().to_string(),
        },
    )?;
    let addrs = match wire::read_frame(&mut rendezvous) {
        Ok(Some((Frame::Table { addrs }, _))) => addrs,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("rendezvous expected an address table, got {other:?}"),
            ));
        }
    };
    drop(rendezvous);
    builder.connect(&addrs)
}

fn root(nodes: usize, backend: Backend, child_args: &[String]) -> io::Result<Role> {
    let builder = MeshBuilder::bind(backend, 0, nodes)?;
    let rendezvous = Listener::bind_ephemeral(backend)?;

    let exe = std::env::current_exe()?;
    let mut children = Vec::with_capacity(nodes - 1);
    for rank in 1..nodes {
        children.push(
            Command::new(&exe)
                .args(child_args)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_NODES, nodes.to_string())
                .env(ENV_BACKEND, backend.name())
                .env(ENV_ROOT, rendezvous.addr())
                .spawn()?,
        );
    }

    let mut addrs = vec![String::new(); nodes];
    addrs[0] = builder.addr().to_string();
    let mut conns = Vec::with_capacity(nodes - 1);
    for _ in 1..nodes {
        let mut conn = rendezvous.accept()?;
        match wire::read_frame(&mut conn) {
            Ok(Some((Frame::Addr { src, addr }, _))) if (src as usize) < nodes => {
                addrs[src as usize] = addr;
                conns.push(conn);
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("rendezvous expected a worker address, got {other:?}"),
                ));
            }
        }
    }
    let table = Frame::Table {
        addrs: addrs.clone(),
    };
    for conn in &mut conns {
        wire::write_frame(conn, &table)?;
    }
    drop(conns);
    drop(rendezvous);

    let net = builder.connect(&addrs)?;
    Ok(Role::Root { net, children })
}

/// Forms an `nodes`-rank multi-process mesh, spawning worker processes from
/// the root invocation. `child_args` are the CLI arguments each re-execed
/// worker runs with (typically the caller's own arguments, so workers take
/// the same code path back into `launch`).
pub fn launch(nodes: usize, backend: Backend, child_args: &[String]) -> io::Result<Role> {
    assert!(nodes >= 1, "a mesh needs at least one rank");
    match std::env::var(ENV_RANK) {
        Ok(_) => {
            let rank: NodeId = env_parse(ENV_RANK)?;
            let nodes_env: usize = env_parse(ENV_NODES)?;
            let backend_name: String = env_parse(ENV_BACKEND)?;
            let backend = Backend::parse(&backend_name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown backend {backend_name:?} in {ENV_BACKEND}"),
                )
            })?;
            Ok(Role::Worker {
                net: worker(nodes_env, backend, rank)?,
            })
        }
        Err(_) => root(nodes, backend, child_args),
    }
}

/// Waits for every worker process; returns `true` when all exited cleanly.
pub fn wait_children(children: &mut [Child]) -> io::Result<bool> {
    let mut all_ok = true;
    for child in children {
        let status = child.wait()?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}
