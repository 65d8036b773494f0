//! A long-lived network front-end for the effres query service.
//!
//! The pipeline crates answer "what is the effective resistance of these
//! pairs" for one process that loaded the snapshot itself. This crate turns
//! that into a service: [`Server`] binds a TCP listener over one shared
//! [`effres_service::QueryEngine`] (resident or paged) and speaks a small
//! length-prefixed binary protocol — query one pair, query a batch, fetch
//! stats, shut down. Concurrency comes from the engine, not the transport:
//! handlers are plain blocking threads, and on the paged backend concurrent
//! batches lease page-cache pin capacity from the engine's admission
//! ledger, so one client's giant batch cannot over-pin the cache that every
//! other client is working from.
//!
//! The crate is std-only (no async runtime, no serde): frames are
//! hand-framed, the stats document is rendered by the workspace's one JSON
//! writer ([`json::Json`]), and the blocking [`Client`] is a thin wrapper
//! over one socket. The `effres-cli` binary
//! lives here too — its `serve` and `bench-client` subcommands are the
//! operational entry points, and the pipeline subcommands (build / query /
//! stats / …) ride along unchanged.
//!
//! ```no_run
//! use effres_server::{Client, Server};
//! use effres_service::QueryEngine;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let engine: QueryEngine = unimplemented!();
//! let server = Server::bind("127.0.0.1:0", engine, Some(3))?;
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let resistance = client.query(0, 41)?;
//! println!("R(0, 41) = {resistance}");
//! client.shutdown_server()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod json;
pub mod protocol;
pub mod server;

pub use client::{
    Client, ClientError, PartialBatch, PingReport, ReconnectPolicy, ReloadReport, ServerInfo,
};
pub use protocol::Health;
pub use server::{EngineEpoch, Reloader, Server, ServerHandle, ServerOptions};
