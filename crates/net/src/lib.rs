//! # grape6-net — the simulated cluster interconnect
//!
//! The GRAPE-6 hosts are "Linux-running PCs … connected with Gigabit
//! Ethernets" (§2.2), and §4.4 shows the machine's parallel performance is
//! dominated by exactly this layer: round-trip latency and sustained
//! bandwidth of the NIC/driver pair, and the butterfly barrier built on
//! TCP sockets.
//!
//! This crate is that layer, as a deterministic discrete-event substrate:
//!
//! * [`link::LinkProfile`] — latency / bandwidth / per-message overhead of
//!   one point-to-point connection (constructors for the paper's three
//!   NICs);
//! * [`fabric`] — a fully-connected fabric of `p` ranks.  Each rank runs on
//!   its own OS thread and owns an [`fabric::Endpoint`]; messages travel
//!   over `std::sync::mpsc` channels carrying a *send timestamp* and a modelled
//!   *wire size*, and each receive advances the receiver's **virtual
//!   clock** to `max(own clock, send time + transfer time)` — conservative
//!   discrete-event simulation at rank granularity, with real payloads and
//!   real concurrency but simulated time.  Every rank algorithm in the
//!   workspace sends it the encoded bytes of [`wire::Frame`]s, through
//!   [`transport::VirtualTransport`].
//!
//! The fabric can also be run *unreliable*: [`fabric::run_ranks_faulty`]
//! applies a seeded [`grape6_fault::NetFaultPlan`] — deterministic drops,
//! corruption, retransmission backoff and timeouts — and every
//! [`fabric::Endpoint`] counts what happened ([`fabric::EndpointStats`]).
//!
//! On top of the point-to-point substrate sit the deployable layers:
//!
//! * [`wire`] — the little-endian [`wire::Frame`] format (built on
//!   `grape6-ckpt`'s encoder) that coalesces barrier sentinel,
//!   all-reduce payload and j-records into one message per partner;
//! * [`transport`] — the pluggable [`transport::Transport`] trait with
//!   the virtual-time endpoint as one backend and a real TCP/UDS mesh
//!   ([`transport::StreamTransport`], ranks as OS processes) as another;
//! * [`exchange`] — the coalesced per-blockstep [`exchange::Wave`]
//!   (split-phase capable, so its first stage hides behind compute),
//!   bitwise identical across schedules and backends.  It is also the
//!   one barrier: an empty wave is the paper's "butterfly message
//!   exchange", measured against [`exchange::central_barrier`], the
//!   MPICH/p4-shaped coordinator, on any transport.  It is also the one
//!   gather: every `grape6-parallel` algorithm assembles its result with
//!   a wave, and [`exchange::send_records`] / [`exchange::recv_records`]
//!   carry the same records point to point (a ring shift, a row
//!   reduction) as one [`wire::Frame::Data`].
//!
//! Nothing here knows about particles; `grape6-parallel` composes this
//! fabric with the machine simulator to run the paper's parallel
//! algorithms end to end.

pub mod cluster;
pub mod exchange;
pub mod fabric;
pub mod failover;
pub mod link;
pub mod transport;
pub mod wire;

pub use cluster::{
    ClusterApp, ClusterConfig, ClusterError, ClusterReport, ClusterSupervisor, FaultKind,
    GroupTransport, Manifest,
};
pub use exchange::{
    central_barrier, coalesced_wave, recv_records, send_records, Wave, WaveOutcome,
};
pub use fabric::{run_ranks, run_ranks_faulty, Endpoint, EndpointStats, LinkError, RecvError};
pub use failover::{Group, RankMonitor};
pub use link::LinkProfile;
pub use transport::{
    dial_service, publish_service_addr, wait_for_service_addr, FrameIoError, FramedConn,
    ServiceListener, StreamConfig, StreamKind, StreamTransport, Transport, TransportError,
    VirtualTransport,
};
pub use wire::{Frame, JRecord};
