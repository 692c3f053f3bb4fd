//! icmp-imix inputs and their checker: ICMP echo requests in Simple-IMIX
//! proportions (64, 594 and 1514 B frames, 7:4:1) in a seeded order, and
//! a checker that verifies every reply byte by byte.

use emu_core::EngineResult;
use emu_traffic::Checker;
use emu_types::{checksum, Frame};
use netfpga_sim::dataplane::CoreOutput;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simple-IMIX frame lengths in bytes (Ethernet header included, FCS
/// excluded).
pub const SIZES: [usize; 3] = [64, 594, 1514];

/// Relative frequency of each entry of [`SIZES`].
pub const WEIGHTS: [u64; 3] = [7, 4, 1];

/// Ethernet + IPv4 + ICMP header bytes ahead of the echo payload.
const HEADERS: usize = 14 + 20 + 8;

/// A well-formed echo request of exactly `len` bytes arriving on
/// `in_port`, with sequence number `seq`.
pub fn echo_request(len: usize, seq: u16, in_port: u8) -> Frame {
    let mut f = emu_services::icmp::echo_request_frame(len - HEADERS, seq);
    debug_assert_eq!(f.len(), len);
    f.in_port = in_port;
    f
}

/// Seeded Simple-IMIX echo-request stream.
#[derive(Debug, Clone)]
pub struct Imix {
    rng: StdRng,
    seq: u16,
}

impl Imix {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Imix {
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
        }
    }

    /// The next frame length, drawn 7:4:1.
    pub fn next_len(&mut self) -> usize {
        let total: u64 = WEIGHTS.iter().sum();
        let mut pick = self.rng.gen_range(0..total);
        for (len, w) in SIZES.iter().zip(WEIGHTS) {
            if pick < w {
                return *len;
            }
            pick -= w;
        }
        unreachable!("pick < total weight")
    }

    /// The next request, of length `len` (or a drawn length).
    pub fn frame(&mut self, len: Option<usize>) -> Frame {
        let len = len.unwrap_or_else(|| self.next_len());
        self.seq = self.seq.wrapping_add(1);
        let port = self.rng.gen_range(0..4u8);
        echo_request(len, self.seq, port)
    }

    /// `n` requests, of length `len` (or drawn lengths).
    pub fn batch(&mut self, n: usize, len: Option<usize>) -> Vec<Frame> {
        (0..n).map(|_| self.frame(len)).collect()
    }
}

/// Verifies every echo reply: one frame back out of the arrival port,
/// the same length, Ethernet and IPv4 addresses swapped, type 0, valid
/// IPv4 and ICMP checksums, every other byte echoed unchanged.
#[derive(Debug, Default)]
pub struct IcmpCheck {
    frames: u64,
    violations: u64,
    notes: Vec<String>,
}

impl IcmpCheck {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Why `out` is not the correct reply to `req`, if it is not.
    pub fn verify(req: &Frame, out: &CoreOutput) -> Option<String> {
        let [tx] = out.tx.as_slice() else {
            return Some(format!("{} frames sent, expected 1", out.tx.len()));
        };
        if tx.ports != 1 << req.in_port {
            return Some(format!(
                "sent to port mask {:#x}, arrived on port {}",
                tx.ports, req.in_port
            ));
        }
        let (q, r) = (req.bytes(), tx.frame.bytes());
        if r.len() != q.len() {
            return Some(format!("reply is {} B, request {} B", r.len(), q.len()));
        }
        let swapped = r[0..6] == q[6..12]
            && r[6..12] == q[0..6]
            && r[26..30] == q[30..34]
            && r[30..34] == q[26..30];
        if !swapped {
            return Some("addresses not swapped".into());
        }
        if r[12..26] != q[12..26] {
            return Some("ethertype or IPv4 header changed".into());
        }
        if !checksum::verify(&r[14..34]) {
            return Some("bad IPv4 header checksum".into());
        }
        if r[34] != 0 || r[35] != q[35] {
            return Some(format!(
                "type/code {}/{}, expected 0/{}",
                r[34], r[35], q[35]
            ));
        }
        let icmp_end = 14 + usize::from(u16::from_be_bytes([r[16], r[17]]));
        if icmp_end > r.len() || !checksum::verify(&r[34..icmp_end]) {
            return Some("bad ICMP checksum".into());
        }
        if r[38..] != q[38..] {
            return Some("identifier, sequence or payload changed".into());
        }
        None
    }
}

impl Checker for IcmpCheck {
    fn name(&self) -> &'static str {
        "icmp-echo-reply"
    }

    fn observe(&mut self, input: &Frame, result: &EngineResult<CoreOutput>) {
        self.frames += 1;
        let fault = match result {
            Ok(out) => Self::verify(input, out),
            Err(e) => Some(format!("no reply: {e}")),
        };
        if let Some(why) = fault {
            self.violations += 1;
            if self.notes.len() < 8 {
                self.notes
                    .push(format!("frame {} ({} B): {why}", self.frames, input.len()));
            }
        }
    }

    fn frames(&self) -> u64 {
        self.frames
    }

    fn violations(&self) -> u64 {
        self.violations
    }

    fn notes(&self) -> &[String] {
        &self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imix_proportions_and_lengths() {
        let mut g = Imix::new(3);
        let mut counts = [0u64; 3];
        for _ in 0..12_000 {
            let f = g.frame(None);
            let k = SIZES.iter().position(|&s| s == f.len()).expect("imix size");
            counts[k] += 1;
        }
        for (c, w) in counts.iter().zip(WEIGHTS) {
            let share = *c as f64 / 12_000.0;
            assert!((share - w as f64 / 12.0).abs() < 0.02, "{counts:?}");
        }
        assert_eq!(Imix::new(9).batch(50, None), Imix::new(9).batch(50, None));
    }
}
