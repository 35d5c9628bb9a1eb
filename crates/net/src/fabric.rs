//! The rank fabric: threads, channels, virtual clocks.
//!
//! [`run_ranks`] spawns one OS thread per rank, hands each a fully-wired
//! [`Endpoint`], runs the provided closure on every rank concurrently and
//! returns the per-rank results in rank order.  The closure does real sends
//! and receives (unbounded `std::sync::mpsc` channels — sends never block, receives
//! block until the matching message arrives, exactly like the TCP sockets
//! the paper used), while time is purely virtual:
//!
//! * [`Endpoint::advance`] charges local computation to the rank's clock;
//! * a receive sets the clock to
//!   `max(receiver clock, send timestamp + link transfer time)` —
//!   the receiver can never observe a message before causality allows.
//!
//! The resulting per-rank clocks are a conservative parallel-discrete-event
//! simulation of the cluster, with the actual data dependencies of the
//! algorithm enforced by the actual message flow.
//!
//! ## Unreliable links
//!
//! [`run_ranks_faulty`] additionally applies a seeded
//! [`NetFaultPlan`]: each (src, dst, seq) message is given a deterministic
//! fate — delivered first try, retransmitted after drops/corruption with
//! exponential backoff, delayed in the network, or (after `max_attempts`)
//! declared lost.  The *payload* always transits the channel (fates are
//! decided by a stateless hash, so two runs with the same seed replay the
//! identical event sequence); what the fault plan changes is virtual time
//! and the [`EndpointStats`] counters, plus [`Endpoint::recv_checked`]
//! returning [`RecvError::Lost`] when the retry budget is exhausted.  The
//! clean plan leaves every clock bit-identical to the plain fabric.
//!
//! ## Typed receive paths
//!
//! Every way a receive can fail is an observable event, not a panic:
//! [`Endpoint::recv_checked`] returns [`RecvError`] — a fault-plan loss,
//! or a peer that dropped its endpoint (reported once its in-flight
//! traffic has drained).

use std::sync::mpsc::{channel, Receiver, Sender};

use grape6_fault::{Delivery, NetFaultPlan};
use grape6_trace::{Phase, Span, SpanCounters, Tracer};

use crate::link::LinkProfile;

/// A timed message in flight.
struct TimedMsg<T> {
    sent_at: f64,
    wire_bytes: usize,
    /// Per-(src,dst) sequence number — the fault plan's replay key.
    seq: u64,
    payload: T,
}

/// Per-endpoint traffic and fault counters, readable via
/// [`Endpoint::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EndpointStats {
    /// Payload bytes this rank put on the wire.
    pub bytes_sent: u64,
    /// Messages this rank sent.
    pub messages_sent: u64,
    /// Messages this rank successfully received.
    pub messages_received: u64,
    /// Extra transmission attempts observed on incoming messages
    /// (attempts − 1 summed over delivered messages).
    pub retransmits: u64,
    /// Incoming attempts lost to packet drops.
    pub dropped_attempts: u64,
    /// Incoming attempts lost to corruption (checksum failures).
    pub corrupt_attempts: u64,
    /// Delivered messages that suffered extra in-network delay.
    pub delayed_messages: u64,
    /// Messages whose retry budget ran out ([`LinkError`] returned).
    pub timeouts: u64,
    /// Total retransmission backoff charged to this rank's clock, seconds.
    pub backoff_seconds: f64,
}

/// A message that exhausted its retry budget (receiver-side timeout).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkError {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank (the rank that observed the timeout).
    pub to: usize,
    /// Sequence number of the lost message on the (from → to) flow.
    pub seq: u64,
    /// Transmission attempts burned before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link {} -> {}: message #{} lost after {} attempts",
            self.from, self.to, self.seq, self.attempts
        )
    }
}

impl std::error::Error for LinkError {}

/// Why a typed receive failed.
///
/// Both variants are events a deployed process must survive: a link whose
/// retry budget ran out, and a peer whose endpoint is gone (the rank
/// exited or died) once its in-flight traffic has drained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// The fault plan exhausted the retry budget on this message.
    Lost(LinkError),
    /// The peer dropped its endpoint and its per-peer FIFO is empty.
    Down {
        /// The departed peer.
        from: usize,
        /// The rank that observed the departure.
        to: usize,
    },
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Lost(e) => write!(f, "{e}"),
            Self::Down { from, to } => {
                write!(f, "rank {from} is down (observed by rank {to})")
            }
        }
    }
}

impl std::error::Error for RecvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Lost(e) => Some(e),
            Self::Down { .. } => None,
        }
    }
}

impl From<LinkError> for RecvError {
    fn from(e: LinkError) -> Self {
        Self::Lost(e)
    }
}

/// One rank's view of the fabric.
pub struct Endpoint<T> {
    rank: usize,
    n_ranks: usize,
    link: LinkProfile,
    plan: NetFaultPlan,
    clock: f64,
    tx: Vec<Sender<TimedMsg<T>>>,
    rx: Vec<Receiver<TimedMsg<T>>>,
    /// Next sequence number per destination rank.
    seq_out: Vec<u64>,
    stats: EndpointStats,
    tracer: Tracer,
}

impl<T: Send> Endpoint<T> {
    /// This rank's id (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the fabric.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The link profile in force.
    pub fn link(&self) -> LinkProfile {
        self.link
    }

    /// Current virtual time at this rank.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Total payload bytes this rank has put on the wire.
    pub fn bytes_sent(&self) -> u64 {
        self.stats.bytes_sent
    }

    /// Total messages this rank has sent.
    pub fn messages_sent(&self) -> u64 {
        self.stats.messages_sent
    }

    /// All traffic and fault counters for this endpoint.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Flatten this endpoint's clock and counters into the checkpoint
    /// model (`f64`s travel as bit patterns).
    pub fn checkpoint_state(&self) -> grape6_ckpt::NetEndpointState {
        grape6_ckpt::NetEndpointState {
            rank: self.rank,
            clock: self.clock.to_bits(),
            bytes_sent: self.stats.bytes_sent,
            messages_sent: self.stats.messages_sent,
            messages_received: self.stats.messages_received,
            retransmits: self.stats.retransmits,
            dropped_attempts: self.stats.dropped_attempts,
            corrupt_attempts: self.stats.corrupt_attempts,
            delayed_messages: self.stats.delayed_messages,
            timeouts: self.stats.timeouts,
            backoff_seconds: self.stats.backoff_seconds.to_bits(),
        }
    }

    /// Restore the clock and counters captured by
    /// [`Self::checkpoint_state`].  Returns `false` (and changes nothing)
    /// if the state belongs to a different rank.  Message sequence numbers
    /// are *not* restored — a resumed run starts a fresh fabric, so the
    /// per-flow fault-plan replay restarts from sequence 0 exactly as the
    /// original run's did.
    pub fn restore_counters(&mut self, st: &grape6_ckpt::NetEndpointState) -> bool {
        if st.rank != self.rank {
            return false;
        }
        self.clock = f64::from_bits(st.clock);
        self.stats = EndpointStats {
            bytes_sent: st.bytes_sent,
            messages_sent: st.messages_sent,
            messages_received: st.messages_received,
            retransmits: st.retransmits,
            dropped_attempts: st.dropped_attempts,
            corrupt_attempts: st.corrupt_attempts,
            delayed_messages: st.delayed_messages,
            timeouts: st.timeouts,
            backoff_seconds: f64::from_bits(st.backoff_seconds),
        };
        true
    }

    /// Install a span sink; with [`Tracer::enabled`] every send, receive
    /// and backoff is recorded as a sub-span on this rank's virtual
    /// timeline (the caller records collective-level spans on top of
    /// these).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This endpoint's tracer (pause/resume, recording collective spans).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Drain the spans recorded at this endpoint.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.tracer.take()
    }

    /// Charge `dt` seconds of local computation to the clock.
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "time cannot run backwards (dt = {dt})");
        self.clock += dt;
    }

    /// Force the clock to at least `t` (used when an external event — e.g.
    /// the GRAPE hardware finishing — releases this rank).
    pub fn advance_to(&mut self, t: f64) {
        self.clock = self.clock.max(t);
    }

    /// Send `payload` to `to`, accounting `wire_bytes` on the wire.
    /// Non-blocking (unbounded channel), charges the send-side overhead.
    /// A departed peer does not fail the send: if `to` has dropped its
    /// endpoint (the rank died), the payload is discarded and `false` is
    /// returned, and the departure surfaces as [`RecvError::Down`] at the
    /// matching [`Self::recv_checked`].  The send-side cost is charged
    /// either way — the sender cannot know the peer is gone until the NIC
    /// has done its work.
    pub fn send_lossy(&mut self, to: usize, payload: T, wire_bytes: usize) -> bool {
        assert!(to != self.rank, "self-send is not a network operation");
        let t0 = self.clock;
        self.clock += self.link.overhead;
        if self.tracer.is_active() {
            self.tracer.record(Span {
                phase: Phase::Send,
                t0,
                t1: self.clock,
                track: 0,
                counters: SpanCounters {
                    items: 1,
                    bytes: wire_bytes as u64,
                    ..Default::default()
                },
            });
        }
        self.stats.bytes_sent += wire_bytes as u64;
        self.stats.messages_sent += 1;
        let seq = self.seq_out[to];
        self.seq_out[to] += 1;
        self.tx[to]
            .send(TimedMsg {
                sent_at: self.clock,
                wire_bytes,
                seq,
                payload,
            })
            .is_ok()
    }

    /// Blocking receive from `from`; advances the clock by causality plus
    /// the receive-side per-message overhead (interrupt + stack — the cost
    /// that makes coordinator-centric barriers serialise in practice).
    ///
    /// Under a fault plan, retransmission backoff and in-network delays are
    /// added to the arrival time, and a message whose retry budget runs out
    /// returns [`RecvError::Lost`]; the clock still advances to the moment
    /// the timeout was declared.  A peer that dropped its endpoint (after
    /// its in-flight traffic drained) returns [`RecvError::Down`] instead
    /// of panicking — on a lossless fabric with live peers the call is
    /// infallible and callers may `expect("lossless fabric")`.
    pub fn recv_checked(&mut self, from: usize) -> Result<T, RecvError> {
        let to = self.rank;
        let msg = self.rx[from]
            .recv()
            .map_err(|_| RecvError::Down { from, to })?;
        self.process_incoming(from, msg).map_err(RecvError::Lost)
    }

    /// Apply causality, the fault plan and tracing to one received message.
    fn process_incoming(&mut self, from: usize, msg: TimedMsg<T>) -> Result<T, LinkError> {
        let t0 = self.clock;
        let wire = self.link.latency + msg.wire_bytes as f64 / self.link.bandwidth;
        let out = match self.plan.delivery(from as u64, self.rank as u64, msg.seq) {
            Delivery::Delivered {
                attempts,
                backoff,
                extra_delay,
                dropped,
                corrupted,
            } => {
                self.stats.retransmits += (attempts - 1) as u64;
                self.stats.dropped_attempts += dropped as u64;
                self.stats.corrupt_attempts += corrupted as u64;
                if extra_delay > 0.0 {
                    self.stats.delayed_messages += 1;
                }
                self.stats.backoff_seconds += backoff;
                let arrival = msg.sent_at + wire + backoff + extra_delay;
                self.clock = self.clock.max(arrival) + self.link.overhead;
                self.stats.messages_received += 1;
                Ok((msg.payload, attempts, backoff, msg.wire_bytes))
            }
            Delivery::Failed {
                attempts,
                backoff,
                dropped,
                corrupted,
            } => {
                self.stats.dropped_attempts += dropped as u64;
                self.stats.corrupt_attempts += corrupted as u64;
                self.stats.backoff_seconds += backoff;
                self.stats.timeouts += 1;
                // The receiver sat through every failed attempt before
                // declaring the link down.
                let deadline = msg.sent_at + wire + backoff;
                self.clock = self.clock.max(deadline) + self.link.overhead;
                Err(LinkError {
                    from,
                    to: self.rank,
                    seq: msg.seq,
                    attempts,
                })
            }
        };
        if self.tracer.is_active() {
            let (attempts, backoff, bytes) = match &out {
                Ok((_, attempts, backoff, bytes)) => (*attempts, *backoff, *bytes as u64),
                Err(e) => (e.attempts, 0.0, 0),
            };
            self.tracer.record(Span {
                phase: Phase::Recv,
                t0,
                t1: self.clock,
                track: 0,
                counters: SpanCounters {
                    items: 1,
                    bytes,
                    retries: attempts.saturating_sub(1) as u64,
                    ..Default::default()
                },
            });
            if backoff > 0.0 {
                // The retransmission tail of the wait, as its own lane.
                let t_arrive = self.clock - self.link.overhead;
                self.tracer.record(Span {
                    phase: Phase::Backoff,
                    t0: t_arrive - backoff,
                    t1: t_arrive,
                    track: 1,
                    counters: SpanCounters {
                        retries: attempts.saturating_sub(1) as u64,
                        ..Default::default()
                    },
                });
            }
        }
        out.map(|(payload, ..)| payload)
    }
}

/// Build a `p`-rank fabric and run `f` on every rank concurrently,
/// returning the per-rank results in rank order.
///
/// A panic in any rank propagates with that rank's own payload (the
/// lowest-numbered panicking rank's, once every rank has finished), so
/// test assertions inside rank closures behave normally.
pub fn run_ranks<T, R, F>(p: usize, link: LinkProfile, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(Endpoint<T>) -> R + Sync,
{
    run_ranks_faulty(p, link, NetFaultPlan::none(), f)
}

/// [`run_ranks`] over an unreliable fabric: every endpoint carries `plan`
/// and applies it to its incoming messages.  With [`NetFaultPlan::none`]
/// this is exactly the plain fabric.
pub fn run_ranks_faulty<T, R, F>(p: usize, link: LinkProfile, plan: NetFaultPlan, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(Endpoint<T>) -> R + Sync,
{
    assert!(p >= 1);
    // Wire p² channels (including unused self-channels, for simple indexing).
    let mut txs: Vec<Vec<Sender<TimedMsg<T>>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    let mut rxs: Vec<Vec<Receiver<TimedMsg<T>>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    for rx_row in rxs.iter_mut() {
        for tx_col in txs.iter_mut() {
            let (tx, rx) = channel();
            tx_col.push(tx);
            rx_row.push(rx);
        }
    }
    let mut endpoints: Vec<Endpoint<T>> = txs
        .into_iter()
        .zip(rxs)
        .enumerate()
        .map(|(rank, (tx, rx))| Endpoint {
            rank,
            n_ranks: p,
            link,
            plan,
            clock: 0.0,
            tx,
            rx,
            seq_out: vec![0; p],
            stats: EndpointStats::default(),
            tracer: Tracer::disabled(),
        })
        .collect();

    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .drain(..)
            .map(|ep| s.spawn(move || f(ep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_ranks_pingpong_clock_advance() {
        let link = LinkProfile {
            latency: 1e-4,
            bandwidth: 1e8,
            overhead: 1e-5,
        };
        let clocks = run_ranks::<u64, f64, _>(2, link, |mut ep| {
            if ep.rank() == 0 {
                ep.send_lossy(1, 42, 1000);
                let x = ep.recv_checked(1).unwrap();
                assert_eq!(x, 43);
            } else {
                let x = ep.recv_checked(0).unwrap();
                assert_eq!(x, 42);
                ep.send_lossy(0, x + 1, 1000);
            }
            ep.clock()
        });
        // One hop: send overhead 1e-5 (stamp), wire 1e-4 + 1e-5, recv
        // overhead 1e-5 ⇒ receiver at 1.3e-4; its reply send adds 1e-5.
        assert!((clocks[1] - 1.4e-4).abs() < 1e-12, "rank1 {}", clocks[1]);
        // Rank 0: sent at 1e-5; reply stamped 1.4e-4, wire 1.1e-4, recv
        // overhead 1e-5 ⇒ 2.6e-4.
        assert!((clocks[0] - 2.6e-4).abs() < 1e-12, "rank0 {}", clocks[0]);
    }

    #[test]
    fn receive_does_not_rewind_clock() {
        let link = LinkProfile::ideal();
        let clocks = run_ranks::<(), f64, _>(2, link, |mut ep| {
            if ep.rank() == 0 {
                ep.send_lossy(1, (), 0);
            } else {
                ep.advance(5.0); // busy long past the message arrival
                ep.recv_checked(0).unwrap();
            }
            ep.clock()
        });
        assert_eq!(clocks[1], 5.0);
    }

    #[test]
    fn advance_accumulates_and_advance_to_is_monotone() {
        let clocks = run_ranks::<(), f64, _>(1, LinkProfile::ideal(), |mut ep| {
            ep.advance(1.0);
            ep.advance(0.5);
            ep.advance_to(1.0); // already past 1.0: no-op
            assert_eq!(ep.clock(), 1.5);
            ep.advance_to(2.0);
            ep.clock()
        });
        assert_eq!(clocks[0], 2.0);
    }

    #[test]
    fn byte_and_message_accounting() {
        let stats = run_ranks::<u8, (u64, u64), _>(2, LinkProfile::ideal(), |mut ep| {
            if ep.rank() == 0 {
                ep.send_lossy(1, 1, 100);
                ep.send_lossy(1, 2, 200);
            } else {
                ep.recv_checked(0).unwrap();
                ep.recv_checked(0).unwrap();
            }
            (ep.bytes_sent(), ep.messages_sent())
        });
        assert_eq!(stats[0], (300, 2));
        assert_eq!(stats[1], (0, 0));
    }

    #[test]
    fn messages_from_distinct_peers_are_ordered_per_peer() {
        let order = run_ranks::<usize, Vec<usize>, _>(3, LinkProfile::ideal(), |mut ep| {
            match ep.rank() {
                0 => {
                    ep.send_lossy(2, 10, 8);
                    ep.send_lossy(2, 11, 8);
                    vec![]
                }
                1 => {
                    ep.send_lossy(2, 20, 8);
                    vec![]
                }
                _ => {
                    // Per-peer FIFO: 10 before 11; rank1's message can be
                    // taken independently.
                    let a = ep.recv_checked(0).unwrap();
                    let b = ep.recv_checked(1).unwrap();
                    let c = ep.recv_checked(0).unwrap();
                    vec![a, b, c]
                }
            }
        });
        assert_eq!(order[2], vec![10, 20, 11]);
    }

    #[test]
    fn a_rank_panic_propagates_with_its_own_payload() {
        let caught = std::panic::catch_unwind(|| {
            run_ranks::<(), (), _>(3, LinkProfile::ideal(), |ep| {
                if ep.rank() == 1 {
                    panic!("rank 1 gave up at step 7");
                }
            })
        })
        .unwrap_err();
        assert_eq!(
            caught.downcast_ref::<&str>(),
            Some(&"rank 1 gave up at step 7")
        );
    }

    #[test]
    #[should_panic] // the rank thread panics on the self-send assert
    fn self_send_rejected() {
        run_ranks::<(), (), _>(1, LinkProfile::ideal(), |mut ep| {
            ep.send_lossy(0, (), 0);
        });
    }

    #[test]
    fn clean_plan_is_bit_identical_to_plain_fabric() {
        let link = LinkProfile {
            latency: 1e-4,
            bandwidth: 1e8,
            overhead: 1e-5,
        };
        let round = |plan: NetFaultPlan| {
            run_ranks_faulty::<u64, f64, _>(2, link, plan, |mut ep| {
                if ep.rank() == 0 {
                    ep.send_lossy(1, 42, 1000);
                    ep.recv_checked(1).unwrap();
                } else {
                    let x = ep.recv_checked(0).unwrap();
                    ep.send_lossy(0, x + 1, 1000);
                }
                ep.clock()
            })
        };
        // A plan with a nonzero seed but zero fault rates is still clean.
        let clean = NetFaultPlan {
            seed: 123,
            ..NetFaultPlan::none()
        };
        assert_eq!(round(NetFaultPlan::none()), round(clean));
    }

    #[test]
    fn lossy_link_retransmits_cost_time_and_are_counted() {
        let link = LinkProfile {
            latency: 1e-4,
            bandwidth: 1e8,
            overhead: 1e-5,
        };
        let plan = NetFaultPlan::lossy(42, 300, 16, 2e-4);
        // 200 one-way messages through a 30%-lossy link.
        let run = || {
            run_ranks_faulty::<u64, (f64, EndpointStats), _>(2, link, plan, |mut ep| {
                if ep.rank() == 0 {
                    for k in 0..200 {
                        ep.send_lossy(1, k, 1000);
                    }
                } else {
                    for k in 0..200 {
                        assert_eq!(ep.recv_checked(0).unwrap(), k);
                    }
                }
                (ep.clock(), ep.stats())
            })
        };
        let a = run();
        let receiver = &a[1];
        assert!(receiver.1.retransmits > 20, "{:?}", receiver.1);
        assert_eq!(receiver.1.dropped_attempts, receiver.1.retransmits);
        assert_eq!(receiver.1.messages_received, 200);
        assert_eq!(receiver.1.timeouts, 0);
        assert!(receiver.1.backoff_seconds > 0.0);
        // The same traffic through a clean link finishes earlier.
        let clean = run_ranks::<u64, f64, _>(2, link, |mut ep| {
            if ep.rank() == 0 {
                for k in 0..200 {
                    ep.send_lossy(1, k, 1000);
                }
            } else {
                for _ in 0..200 {
                    ep.recv_checked(0).unwrap();
                }
            }
            ep.clock()
        });
        assert!(receiver.0 > clean[1], "{} vs {}", receiver.0, clean[1]);
        // Same seed ⇒ same clocks and the same counters, exactly.
        let b = run();
        assert_eq!(a[1].0, b[1].0);
        assert_eq!(a[1].1, b[1].1);
    }

    #[test]
    fn exhausted_retry_budget_surfaces_as_link_error() {
        // 100% drop with a 3-attempt budget: every receive must time out.
        let plan = NetFaultPlan::lossy(7, 1000, 3, 1e-4);
        let link = LinkProfile::ideal();
        let out = run_ranks_faulty::<u8, Option<RecvError>, _>(2, link, plan, |mut ep| {
            if ep.rank() == 0 {
                ep.send_lossy(1, 9, 64);
                None
            } else {
                let err = ep.recv_checked(0).unwrap_err();
                assert!(ep.clock() > 0.0, "timeout must burn virtual time");
                assert_eq!(ep.stats().timeouts, 1);
                Some(err)
            }
        });
        let RecvError::Lost(e) = out[1].unwrap() else {
            panic!("expected a fault-plan loss, got {:?}", out[1]);
        };
        assert_eq!((e.from, e.to, e.seq, e.attempts), (0, 1, 0, 3));
        assert_eq!(
            e.to_string(),
            "link 0 -> 1: message #0 lost after 3 attempts"
        );
        assert_eq!(RecvError::Lost(e).to_string(), e.to_string());
    }

    #[test]
    fn departed_peer_surfaces_as_recv_error_down() {
        let out = run_ranks::<u8, Option<RecvError>, _>(2, LinkProfile::ideal(), |mut ep| {
            if ep.rank() == 0 {
                ep.send_lossy(1, 5, 8);
                None // exits; its endpoint drops
            } else {
                // The buffered message arrives first (FIFO drains)…
                assert_eq!(ep.recv_checked(0).unwrap(), 5);
                // …then the departure is a typed error, not a panic.
                Some(ep.recv_checked(0).unwrap_err())
            }
        });
        assert_eq!(out[1], Some(RecvError::Down { from: 0, to: 1 }));
        assert_eq!(
            out[1].unwrap().to_string(),
            "rank 0 is down (observed by rank 1)"
        );
    }
}
