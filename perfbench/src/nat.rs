//! nat-churn inputs: the soak bench's churn mix, with every 8th batch's
//! translated outputs bounced back as inbound replies.

use emu_core::BatchReport;
use emu_traffic::{
    Adversarial, Background, DnsWeighted, FlowChurn, Mix, TcpConversations, TrafficGen,
};
use emu_types::{Frame, Ipv4};

/// The NAT's public address.
pub fn public() -> Ipv4 {
    Ipv4::new(203, 0, 113, 1)
}

/// Mapping idle timeout in frame epochs.
pub const TTL_FRAMES: u64 = 20_000;

/// Every `BOUNCE_EVERY`th batch's translations come back inbound.
const BOUNCE_EVERY: u64 = 8;

/// At most this many replies are bounced per batch.
const BOUNCE_MAX: usize = 256;

/// The churn mix: FlowChurn with 4000 live flows and 20% churn, TCP
/// conversations, weighted DNS, background chatter and 1/24
/// adversarial frames.
pub fn mix(seed: u64) -> Mix {
    Mix::new(seed)
        .add(10, FlowChurn::new(seed ^ 5, 4_000, 200, &[1, 2, 3]))
        .add(8, TcpConversations::new(seed ^ 1, 48, &[1, 2, 3]))
        .add(
            3,
            DnsWeighted::new(seed ^ 2, &[("example.com", 3), ("emu.cam.ac.uk", 1)]),
        )
        .add(2, Background::new(seed ^ 3, &[1, 2, 3]))
        .add(1, Adversarial::new(seed ^ 4, &[0, 1, 2, 3]))
}

/// The nat-churn frame source.
pub struct NatFeed {
    mix: Mix,
    batches: u64,
}

impl NatFeed {
    /// The feed for `seed`.
    pub fn new(seed: u64) -> Self {
        NatFeed {
            mix: mix(seed),
            batches: 0,
        }
    }
}

impl crate::engine::Feed for NatFeed {
    fn next(&mut self, n: usize) -> Vec<Frame> {
        (0..n)
            .map(|_| {
                // Port 0 is the NAT's external side: generated frames
                // enter on an internal port.
                let mut f = self.mix.next_frame();
                if f.in_port == 0 {
                    f.in_port = 1 + (f.len() % 3) as u8;
                }
                f
            })
            .collect()
    }

    fn follow_up(&mut self, batch: &[Frame], report: &BatchReport) -> Vec<Frame> {
        let bounce = self.batches.is_multiple_of(BOUNCE_EVERY);
        self.batches += 1;
        if !bounce {
            return Vec::new();
        }
        batch
            .iter()
            .zip(&report.outputs)
            .filter(|(f, _)| f.in_port != 0)
            .filter_map(|(_, r)| r.as_ref().ok())
            .flat_map(|o| &o.tx)
            .take(BOUNCE_MAX)
            .map(|t| emu_traffic::build::reply_to(&t.frame, b"bench-reply"))
            .collect()
    }
}
