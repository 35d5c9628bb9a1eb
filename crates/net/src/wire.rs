//! Wire frames for the coalesced per-blockstep wave.
//!
//! The paper's §4.4/§6 tuning insight is that the multi-host crossover is
//! set by *per-message* costs: every TCP message pays a round-trip share
//! and a switch transit, so three separate collectives per blockstep
//! (commit barrier, next-time all-reduce, j-exchange) pay three times.
//! The coalesced schedule packs everything bound for the same partner
//! within one butterfly stage into **one** frame — one latency and one
//! switch charge instead of k — and this module defines that frame.
//!
//! Encoding is the `grape6-ckpt` little-endian format ([`Enc`]/[`Dec`]):
//! fixed layout, `f64`s as bit patterns, length-prefixed sequences with
//! allocation guards.  The same bytes travel over the virtual-time
//! fabric and the real TCP/UDS transport, which is the heart of the
//! bitwise argument: both backends decode the identical payload, so the
//! numeric state they deliver to the integrator is identical by
//! construction — the backends differ only in what a message *costs*.

use grape6_ckpt::wire::{Dec, Enc, WireError};

/// One coalesced j-update record: a particle index plus its payload words
/// (`f64` bit patterns — position, velocity, mass, whatever the producer
/// packs).  Records survive transport bitwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JRecord {
    /// Global particle index.
    pub index: u64,
    /// Payload words as bit patterns.
    pub words: Vec<u64>,
}

impl JRecord {
    /// Encoded size in bytes (index + length prefix + words).
    pub fn encoded_len(&self) -> usize {
        16 + 8 * self.words.len()
    }

    /// A record sequence as a [`Frame::Data`] payload, in the layout a
    /// [`Frame::Stage`] carries its records.
    pub fn encode_seq(records: &[JRecord]) -> Vec<u8> {
        let mut e = Enc::with_capacity(8 + records_len(records));
        put_records(&mut e, records);
        e.into_bytes()
    }

    /// Decode what [`Self::encode_seq`] wrote, requiring full consumption.
    pub fn decode_seq(buf: &[u8]) -> Result<Vec<JRecord>, WireError> {
        let mut d = Dec::new(buf);
        let records = take_records(&mut d)?;
        d.finish()?;
        Ok(records)
    }
}

/// Encoded bytes of `records`, without the count.
fn records_len(records: &[JRecord]) -> usize {
    records.iter().map(JRecord::encoded_len).sum()
}

/// The one record layout: the count, then each record's index and its
/// length-prefixed words.
fn put_records(e: &mut Enc, records: &[JRecord]) {
    e.size(records.len());
    for r in records {
        e.u64(r.index);
        e.seq_u64(&r.words);
    }
}

/// Read a sequence [`put_records`] wrote: one allocation for the
/// sequence and one per record's words.  Each record is ≥ 16 bytes on
/// the wire, which bounds the count before anything is allocated.
fn take_records(d: &mut Dec) -> Result<Vec<JRecord>, WireError> {
    d.seq_with(16, |d| {
        Ok(JRecord {
            index: d.u64()?,
            words: d.seq_u64()?,
        })
    })
}

/// A wire message.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// One stage of the coalesced per-blockstep wave: barrier sentinel
    /// (the frame itself), the sender's running all-reduce-min of the
    /// next block time, and every j-record bound for this partner —
    /// all in one message.
    Stage {
        /// Recovery generation (bumped on every cluster recovery; a
        /// receiver discards frames from older generations, which is what
        /// makes replay after a rewind immune to stale in-flight frames).
        gen: u32,
        /// Blockstep index (frames from different steps must never mix).
        step: u64,
        /// Wave stage index within the step.
        stage: u32,
        /// Sender's running minimum of the next block time.
        t_min: f64,
        /// Sender's running minimum of the last *coordinated checkpoint*
        /// step — folding the agreed cut epoch into the same allreduce
        /// that carries the block time, so every rank leaves the wave
        /// knowing the globally-consistent rewind point.
        ckpt: u64,
        /// Coalesced j-updates for this partner.
        records: Vec<JRecord>,
        /// Synthetic extra wire bytes the virtual-time backend charges on
        /// top of the encoded length (models j-payload volume without
        /// allocating it).  Travels as a number; a real transport moves
        /// only the encoded bytes.
        pad: u64,
    },
    /// Uncoalesced raw data (plain point-to-point traffic).
    Data(Vec<u8>),
    /// A liveness beat between blocksteps on the real-process transport.
    /// Piggybacked on the same streams as the wave traffic, so per-peer
    /// FIFO ordering keeps beats and stages aligned under the lockstep
    /// schedule; feeds [`RankMonitor`](crate::failover::RankMonitor).
    Heartbeat {
        /// Recovery generation the sender is in.
        gen: u32,
        /// Heartbeat round counter (the supervised blockstep index).
        epoch: u64,
    },
    /// Recovery coordination: the sender has detected (or been told of)
    /// dead ranks and proposes moving to generation `gen`.  Survivors
    /// exchange these all-to-all in a fixed number of rounds until the
    /// dead set is agreed, then rewind to the coordinated checkpoint.
    Recover {
        /// The generation being formed (current + 1 at the detector).
        gen: u32,
        /// Agreement round within this recovery (fixed schedule, so every
        /// survivor consumes exactly one frame per peer per round).
        round: u32,
        /// Ranks the sender believes dead, ascending.
        dead: Vec<u64>,
        /// The sender's last coordinated checkpoint step (all-reduced by
        /// min to pick the rewind point).
        ckpt: u64,
    },
}

const TAG_STAGE: u32 = 1;
const TAG_DATA: u32 = 2;
const TAG_HEARTBEAT: u32 = 3;
const TAG_RECOVER: u32 = 4;

impl Frame {
    /// Logical records coalesced into this frame: the barrier sentinel,
    /// the all-reduce payload, and each j-record count as one apiece —
    /// `records / messages` is the measured coalescing factor the span
    /// counters report.
    pub fn logical_records(&self) -> u64 {
        match self {
            Frame::Stage { records, .. } => 2 + records.len() as u64,
            Frame::Data(_) | Frame::Heartbeat { .. } | Frame::Recover { .. } => 1,
        }
    }

    /// Wire bytes the virtual-time backend charges for this frame: the
    /// encoded length plus the synthetic pad.
    pub fn wire_len(&self) -> usize {
        let pad = match self {
            Frame::Stage { pad, .. } => *pad as usize,
            _ => 0,
        };
        self.encoded_len() + pad
    }

    /// Exact encoded length in bytes (without the pad).
    pub fn encoded_len(&self) -> usize {
        match self {
            Frame::Stage { records, .. } => {
                // tag + gen + step + stage + t_min + ckpt + pad
                // + record count + records
                4 + 4 + 8 + 4 + 8 + 8 + 8 + 8 + records_len(records)
            }
            Frame::Data(b) => 4 + 8 + b.len(),
            Frame::Heartbeat { .. } => 4 + 4 + 8,
            Frame::Recover { dead, .. } => 4 + 4 + 4 + 8 + 8 * dead.len() + 8,
        }
    }

    /// Encode into the little-endian wire layout, in one allocation
    /// sized by [`Self::encoded_len`].
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(self.encoded_len());
        self.put(&mut e);
        e.into_bytes()
    }

    /// The encoding behind its u64-LE length prefix — the bytes
    /// [`framed`](crate::transport::framed)`(&self.encode())` would give,
    /// in one allocation instead of two.
    pub(crate) fn encode_framed(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut e = Enc::with_capacity(8 + len);
        e.size(len);
        self.put(&mut e);
        e.into_bytes()
    }

    fn put(&self, e: &mut Enc) {
        match self {
            Frame::Stage {
                gen,
                step,
                stage,
                t_min,
                ckpt,
                records,
                pad,
            } => {
                e.u32(TAG_STAGE);
                e.u32(*gen);
                e.u64(*step);
                e.u32(*stage);
                e.u64(t_min.to_bits());
                e.u64(*ckpt);
                e.u64(*pad);
                put_records(e, records);
            }
            Frame::Data(b) => {
                e.u32(TAG_DATA);
                e.bytes(b);
            }
            Frame::Heartbeat { gen, epoch } => {
                e.u32(TAG_HEARTBEAT);
                e.u32(*gen);
                e.u64(*epoch);
            }
            Frame::Recover {
                gen,
                round,
                dead,
                ckpt,
            } => {
                e.u32(TAG_RECOVER);
                e.u32(*gen);
                e.u32(*round);
                e.seq_u64(dead);
                e.u64(*ckpt);
            }
        }
    }

    /// Decode a frame, requiring full consumption of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
        let mut d = Dec::new(buf);
        let tag = d.u32()?;
        let out = match tag {
            TAG_STAGE => {
                let gen = d.u32()?;
                let step = d.u64()?;
                let stage = d.u32()?;
                let t_min = f64::from_bits(d.u64()?);
                let ckpt = d.u64()?;
                let pad = d.u64()?;
                let records = take_records(&mut d)?;
                Frame::Stage {
                    gen,
                    step,
                    stage,
                    t_min,
                    ckpt,
                    records,
                    pad,
                }
            }
            TAG_HEARTBEAT => Frame::Heartbeat {
                gen: d.u32()?,
                epoch: d.u64()?,
            },
            TAG_RECOVER => Frame::Recover {
                gen: d.u32()?,
                round: d.u32()?,
                dead: d.seq_u64()?,
                ckpt: d.u64()?,
            },
            TAG_DATA => {
                let n = d.size()?;
                if n > d.remaining() {
                    return Err(WireError::Oversize);
                }
                if n < d.remaining() {
                    return Err(WireError::Trailing);
                }
                return Ok(Frame::Data(buf[buf.len() - n..].to_vec()));
            }
            _ => return Err(WireError::Bool),
        };
        d.finish()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_frame_roundtrips_bitwise() {
        let f = Frame::Stage {
            gen: 2,
            step: 176,
            stage: 3,
            t_min: 0.031_25_f64,
            ckpt: 160,
            records: vec![
                JRecord {
                    index: 7,
                    words: vec![1.5_f64.to_bits(), f64::NEG_INFINITY.to_bits()],
                },
                JRecord {
                    index: 2048,
                    words: vec![],
                },
            ],
            pad: 4096,
        };
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        assert_eq!(f.wire_len(), f.encoded_len() + 4096);
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
        // NaN t_min survives as its exact bit pattern.
        let nan = Frame::Stage {
            gen: 0,
            step: 0,
            stage: 0,
            t_min: f64::from_bits(0x7ff8_0000_0000_0001),
            ckpt: 0,
            records: vec![],
            pad: 0,
        };
        let back = Frame::decode(&nan.encode()).unwrap();
        let Frame::Stage { t_min, .. } = back else {
            panic!("wrong variant");
        };
        assert_eq!(t_min.to_bits(), 0x7ff8_0000_0000_0001);
    }

    #[test]
    fn framed_encoding_is_the_prefix_then_the_frame_bytes() {
        for f in [
            Frame::Stage {
                gen: 1,
                step: 2,
                stage: 0,
                t_min: 0.5,
                ckpt: 3,
                records: vec![JRecord {
                    index: 4,
                    words: vec![5, 6],
                }],
                pad: 7,
            },
            Frame::Data(vec![1, 2, 3]),
            Frame::Heartbeat { gen: 8, epoch: 9 },
            Frame::Recover {
                gen: 1,
                round: 0,
                dead: vec![2],
                ckpt: 4,
            },
        ] {
            let bytes = f.encode();
            assert_eq!(bytes.len(), f.encoded_len(), "{f:?}");
            assert_eq!(f.encode_framed(), crate::transport::framed(&bytes), "{f:?}");
        }
    }

    #[test]
    fn data_frame_roundtrips_and_counts_one_record() {
        let f = Frame::Data(vec![9, 8, 7, 6, 5]);
        assert_eq!(f.logical_records(), 1);
        assert_eq!(f.wire_len(), f.encoded_len());
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
        let empty = Frame::Data(vec![]);
        assert_eq!(Frame::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn record_sequences_roundtrip_in_the_stage_layout() {
        let records = vec![
            JRecord {
                index: 5,
                words: vec![(-0.0_f64).to_bits(), f64::NAN.to_bits()],
            },
            JRecord {
                index: 1,
                words: vec![],
            },
        ];
        let bytes = JRecord::encode_seq(&records);
        assert_eq!(JRecord::decode_seq(&bytes).unwrap(), records);
        // A stage frame's tail is the same bytes.
        let stage = Frame::Stage {
            gen: 0,
            step: 0,
            stage: 0,
            t_min: 0.0,
            ckpt: 0,
            records: records.clone(),
            pad: 0,
        }
        .encode();
        assert!(stage.ends_with(&bytes));
        for cut in 0..bytes.len() {
            assert!(JRecord::decode_seq(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert_eq!(JRecord::decode_seq(&long), Err(WireError::Trailing));
    }

    #[test]
    fn heartbeat_and_recover_frames_roundtrip() {
        let hb = Frame::Heartbeat { gen: 5, epoch: 99 };
        let bytes = hb.encode();
        assert_eq!(bytes.len(), hb.encoded_len());
        assert_eq!(Frame::decode(&bytes).unwrap(), hb);
        assert_eq!(hb.logical_records(), 1);
        assert_eq!(hb.wire_len(), hb.encoded_len());
        let rec = Frame::Recover {
            gen: 6,
            round: 1,
            dead: vec![3, 7],
            ckpt: 128,
        };
        let bytes = rec.encode();
        assert_eq!(bytes.len(), rec.encoded_len());
        assert_eq!(Frame::decode(&bytes).unwrap(), rec);
        // An empty dead set is legal (a joiner confirming membership).
        let empty = Frame::Recover {
            gen: 1,
            round: 2,
            dead: vec![],
            ckpt: 0,
        };
        assert_eq!(Frame::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn coalescing_factor_counts_sentinel_min_and_records() {
        let f = Frame::Stage {
            gen: 0,
            step: 1,
            stage: 0,
            t_min: 1.0,
            ckpt: 0,
            records: vec![
                JRecord {
                    index: 0,
                    words: vec![0],
                },
                JRecord {
                    index: 1,
                    words: vec![1],
                },
                JRecord {
                    index: 2,
                    words: vec![2],
                },
            ],
            pad: 0,
        };
        // One message, five logical records: 5× fewer messages than the
        // uncoalesced schedule for the same traffic.
        assert_eq!(f.logical_records(), 5);
    }

    #[test]
    fn truncated_and_oversize_payloads_are_typed_errors() {
        let f = Frame::Stage {
            gen: 0,
            step: 1,
            stage: 0,
            t_min: 2.0,
            ckpt: 0,
            records: vec![JRecord {
                index: 3,
                words: vec![42],
            }],
            pad: 0,
        };
        let bytes = f.encode();
        // Truncation surfaces as a typed decode error (the record's word
        // length prefix no longer fits → Oversize before any read).
        assert!(matches!(
            Frame::decode(&bytes[..bytes.len() - 1]),
            Err(WireError::Eof | WireError::Oversize)
        ));
        // A record count far beyond the payload is rejected before any
        // allocation happens.
        let mut e = Enc::new();
        e.u32(1); // stage tag
        e.u32(0); // gen
        e.u64(0); // step
        e.u32(0); // stage
        e.u64(0); // t_min
        e.u64(0); // ckpt
        e.u64(0); // pad
        e.size(usize::MAX / 32);
        assert_eq!(Frame::decode(&e.into_bytes()), Err(WireError::Oversize));
        // Unknown tags are rejected.
        let mut e = Enc::new();
        e.u32(77);
        assert!(Frame::decode(&e.into_bytes()).is_err());
        // Trailing bytes are rejected.
        let mut bytes = f.encode();
        bytes.push(0);
        assert_eq!(Frame::decode(&bytes), Err(WireError::Trailing));
    }
}
