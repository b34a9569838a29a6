#![warn(missing_docs)]
//! # geoserp-serve — the socket transport
//!
//! Everything else in geoserp runs against the in-process simulated network
//! ([`geoserp_net::SimNet`]). This crate puts the *same* [`SearchService`]
//! behind real TCP sockets, served by a readiness-based **epoll event
//! loop** (nonblocking state machines, each connection's idle or write
//! deadline kept in the loop's ordered deadline set). It provides
//! keep-alive, read/write timeouts, request-size limits, a serve-layer
//! per-IP rate limiter, `503` load-shedding at the admission bound, and
//! graceful shutdown that drains in-flight connections. `/healthz`
//! answers liveness probes and `/metrics` exposes the shared
//! [`geoserp_obs::ObsHub`] in Prometheus text format.
//!
//! Both transports speak the `geoserp-net` wire codec, and the socket layer
//! reconstructs the simulator's request context (sequence numbers, virtual
//! day, datacenter pinning) — so the page served over TCP for a given
//! `(query, geolocation header, day)` is **byte-identical** to the page the
//! simulated path produces. The end-to-end loopback test asserts exactly
//! that.
//!
//! # Sharded serving
//!
//! The same socket server also powers a multi-process topology
//! ([`ShardedCluster`]): the corpus splits into contiguous index shards
//! ([`topology::ShardPlan`]), each served by M replica processes
//! ([`shard::ShardService`]), with a router front-end whose engine
//! retrieves through a scatter-gather [`router::RemoteRetriever`]
//! (consistent-hash replica placement, hedged requests on slow replicas,
//! ring-order retries on dead ones, pooled keep-alive shard connections
//! driven by the serving thread itself). Routed pages stay byte-identical to
//! the single-process server's — the differential battery in
//! `tests/sharded_equivalence.rs` proves it cell by cell.
//!
//! [`loadgen`] is a closed-loop client for one running server or router
//! (`geoserp loadgen --addr`); it reports throughput and p50/p99 latency.
//! Paired performance runs are perfbench's `serve_direct` and
//! `serve_routed` workloads.
//!
//! [`SearchService`]: geoserp_engine::SearchService
//!
//! ```no_run
//! use geoserp_serve::{ServeConfig, ServedWorld, SocketServer};
//!
//! let world = ServedWorld::build(2015, geoserp_engine::EngineConfig::paper_defaults()).unwrap();
//! let server = SocketServer::start("127.0.0.1:0", &world, ServeConfig::new()).unwrap();
//! println!("serving on {}", server.local_addr());
//! server.shutdown();
//! ```

mod epoll;
pub mod loadgen;
pub mod router;
pub mod server;
pub mod shard;
mod slab;
pub mod topology;

pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use router::{ClusterConfig, DelayServer, RemoteRetriever, ShardedCluster};
pub use server::{ServeConfig, ServedWorld, SocketServer, DAY_MS};
pub use shard::ShardService;
pub use topology::{HashRing, ShardPlan};
