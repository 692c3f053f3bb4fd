//! Behavioural models of hardware IP blocks.
//!
//! §3.4 of the paper: "to maximize the performance of a design, it is
//! sometimes recommended to use specialized IP blocks that take advantage
//! of the hardware capabilities, such as content addressable memory". Emu
//! programs talk to IP blocks over explicit signal protocols (Figure 5
//! shows the hash unit's seed handshake); because the protocol lives in
//! ordinary program code, "this enables us to interface with any IP
//! block".
//!
//! Each model here binds to program boundary signals by name, using a
//! `<prefix>_<port>` convention, and advances one cycle per [`Env::tick`].
//! The same models serve every target: the sequential interpreter ticks
//! them at each `pause()`, the RTL executor at each clock edge.
//!
//! All protocols are level-based (request/ready), so they tolerate the
//! extra states inserted by the scheduler's budget cuts.

use crate::cam::{CamPair, CamTable};
pub use crate::cam::{CamSnapshot, CamStats};
use emu_types::checksum::PEARSON_TABLE;
use emu_types::Bits;
use kiwi::resources::IpBlock;
use kiwi_ir::interp::{Env, MachineState};
use kiwi_ir::program::{Program, SigDir};
use std::collections::VecDeque;

/// A steppable IP block bound to a signal prefix.
///
/// Models must be [`Send`] so a service instance (and its environment)
/// can move to a worker thread — the engine's parallel execution mode
/// runs each shard's pipeline on its own thread.
pub trait IpBlockModel: Send {
    /// One clock cycle: sample the program's outputs, drive its inputs.
    fn step(&mut self, prog: &Program, st: &mut MachineState);
    /// Resource accounting entry for `kiwi::resources::estimate`.
    fn resources(&self) -> IpBlock;
    /// All resource entries; blocks that model several hardware tables
    /// (e.g. [`PairedCamModel`]) override this. Defaults to
    /// `vec![self.resources()]`.
    fn resources_all(&self) -> Vec<IpBlock> {
        vec![self.resources()]
    }
    /// One frame epoch: called once per delivered frame, before the
    /// frame enters the pipeline. TTL-expiring tables age here; idle
    /// cycles between frames never age anything.
    fn frame_start(&mut self) {}
    /// Telemetry snapshots of any CAM tables this block hosts.
    fn cam_snapshots(&self) -> Vec<CamSnapshot> {
        Vec::new()
    }
    /// Zeroes any CAM statistics (table contents untouched).
    fn reset_cam_stats(&mut self) {}
}

fn out_val(prog: &Program, st: &MachineState, name: &str) -> Bits {
    st.signal(prog, name)
        .cloned()
        .unwrap_or_else(|| Bits::zero(1))
}

/// An environment hosting a set of IP blocks.
#[derive(Default)]
pub struct IpEnv {
    blocks: Vec<Box<dyn IpBlockModel>>,
}

impl IpEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a block.
    pub fn attach(&mut self, b: Box<dyn IpBlockModel>) -> &mut Self {
        self.blocks.push(b);
        self
    }

    /// Resource entries for all attached blocks.
    pub fn resources(&self) -> Vec<IpBlock> {
        self.blocks.iter().flat_map(|b| b.resources_all()).collect()
    }

    /// Telemetry snapshots of every CAM table hosted by any block.
    pub fn cam_snapshots(&self) -> Vec<CamSnapshot> {
        self.blocks.iter().flat_map(|b| b.cam_snapshots()).collect()
    }

    /// Zeroes every block's CAM statistics (table contents untouched).
    pub fn reset_cam_stats(&mut self) {
        for b in &mut self.blocks {
            b.reset_cam_stats();
        }
    }
}

impl Env for IpEnv {
    fn tick(&mut self, _cycle: u64, prog: &Program, st: &mut MachineState) {
        for b in &mut self.blocks {
            b.step(prog, st);
        }
    }

    fn frame_start(&mut self) {
        for b in &mut self.blocks {
            b.frame_start();
        }
    }
}

/// Chains two environments: `first` ticks before `second`.
pub struct ChainEnv<'a> {
    /// Ticked first (typically the platform).
    pub first: &'a mut dyn Env,
    /// Ticked second (typically the IP blocks).
    pub second: &'a mut dyn Env,
}

impl Env for ChainEnv<'_> {
    fn tick(&mut self, cycle: u64, prog: &Program, st: &mut MachineState) {
        self.first.tick(cycle, prog, st);
        self.second.tick(cycle, prog, st);
    }

    fn frame_start(&mut self) {
        self.first.frame_start();
        self.second.frame_start();
    }
}

// ---------------------------------------------------------------------
// CAM
// ---------------------------------------------------------------------

/// Resolved signal indices for one CAM port set. Signal lookup by name
/// is a linear scan over the program's declarations, so the models
/// resolve each port once on first `step` and index the state arrays
/// directly afterwards — the table operations themselves are O(1), and
/// port binding must not reintroduce a per-cycle scan.
#[derive(Clone, Copy, Default)]
struct CamPorts {
    lookup_en: Option<usize>,
    lookup_key: Option<usize>,
    write_en: Option<usize>,
    write_key: Option<usize>,
    write_value: Option<usize>,
    delete_en: Option<usize>,
    delete_key: Option<usize>,
    matched: Option<(usize, u16)>,
    value: Option<(usize, u16)>,
}

impl CamPorts {
    fn resolve(prog: &Program, prefix: &str) -> Self {
        let out = |suffix: &str| {
            let id = prog.signal_by_name(&format!("{prefix}_{suffix}"))?;
            let d = prog.signal(id)?;
            (d.dir == SigDir::Out).then_some(id.0 as usize)
        };
        let inp = |suffix: &str| {
            let id = prog.signal_by_name(&format!("{prefix}_{suffix}"))?;
            let d = prog.signal(id)?;
            (d.dir == SigDir::In).then_some((id.0 as usize, d.width))
        };
        CamPorts {
            lookup_en: out("lookup_en"),
            lookup_key: out("lookup_key"),
            write_en: out("write_en"),
            write_key: out("write_key"),
            write_value: out("write_value"),
            delete_en: out("delete_en"),
            delete_key: out("delete_key"),
            matched: inp("match"),
            value: inp("value"),
        }
    }

    fn strobe(&self, st: &MachineState, port: Option<usize>) -> bool {
        port.is_some_and(|i| st.sigs_out[i].to_bool())
    }

    fn sample(&self, st: &MachineState, port: Option<usize>, width: u16) -> Bits {
        match port {
            Some(i) => st.sigs_out[i].clone().resize(width),
            None => Bits::zero(width),
        }
    }

    fn drive(&self, st: &mut MachineState, port: Option<(usize, u16)>, v: Bits) {
        if let Some((i, w)) = port {
            st.sigs_in[i] = v.resize(w);
        }
    }
}

/// Content-addressable memory with single-cycle lookup, backed by a
/// hashed [`CamTable`] (see [`crate::cam`] for the
/// capacity/expiry/eviction contract).
///
/// Ports (program side): out `{p}_lookup_en`, `{p}_lookup_key`,
/// `{p}_write_en`, `{p}_write_key`, `{p}_write_value`, optional
/// `{p}_delete_en`/`{p}_delete_key`; in `{p}_match`, `{p}_value`.
///
/// A lookup launched in cycle *n* presents `match`/`value` during cycle
/// *n + 1*. Writes replace an existing key in place, otherwise fill a
/// free slot, otherwise reclaim an expired entry, otherwise overwrite
/// round-robin (how the NetFPGA reference switch handles MAC-table
/// overflow).
pub struct CamModel {
    prefix: String,
    native: bool,
    table: CamTable,
    ports: Option<CamPorts>,
}

impl CamModel {
    /// Creates a CAM bound to `prefix` with the given geometry and no
    /// expiry.
    pub fn new(prefix: &str, entries: usize, key_bits: u16, value_bits: u16, native: bool) -> Self {
        CamModel {
            prefix: prefix.to_string(),
            native,
            table: CamTable::new(entries, key_bits, value_bits),
            ports: None,
        }
    }

    /// Sets the idle timeout in frame epochs (`None` disables expiry).
    pub fn with_ttl(mut self, ttl: Option<u64>) -> Self {
        self.table = self.table.with_ttl(ttl);
        self
    }

    /// Declares the CAM's ports on a program builder; returns nothing, the
    /// program looks signals up by name.
    pub fn declare_ports(
        pb: &mut kiwi_ir::ProgramBuilder,
        prefix: &str,
        key_bits: u16,
        value_bits: u16,
    ) {
        pb.sig_out(&format!("{prefix}_lookup_en"), 1);
        pb.sig_out(&format!("{prefix}_lookup_key"), key_bits);
        pb.sig_out(&format!("{prefix}_write_en"), 1);
        pb.sig_out(&format!("{prefix}_write_key"), key_bits);
        pb.sig_out(&format!("{prefix}_write_value"), value_bits);
        pb.sig_in(&format!("{prefix}_match"), 1);
        pb.sig_in(&format!("{prefix}_value"), value_bits);
    }

    /// Resident entries (live + expired-but-not-yet-reclaimed).
    pub fn occupancy(&self) -> usize {
        self.table.occupancy()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &CamStats {
        &self.table.stats
    }

    /// Preloads an entry (control-plane table population, e.g. a DNS
    /// resolution table or static NAT mappings). Accounts writes and
    /// evictions exactly like the dataplane write strobe.
    pub fn insert(&mut self, key: Bits, value: Bits) {
        self.table.write(key, value);
        self.table.clear_removed();
    }

    /// Telemetry snapshot of the backing table.
    pub fn snapshot(&self) -> CamSnapshot {
        CamSnapshot {
            prefix: self.prefix.clone(),
            capacity: self.table.capacity(),
            occupancy: self.table.occupancy(),
            stats: self.table.stats,
        }
    }
}

impl IpBlockModel for CamModel {
    fn step(&mut self, prog: &Program, st: &mut MachineState) {
        let ports = *self
            .ports
            .get_or_insert_with(|| CamPorts::resolve(prog, &self.prefix));
        // Optional delete strobe (programs that never declare the signal
        // have no port here, so legacy CAM users are unaffected).
        if ports.strobe(st, ports.delete_en) {
            let key = ports.sample(st, ports.delete_key, self.table.key_bits());
            self.table.delete(&key);
        }
        if ports.strobe(st, ports.write_en) {
            let key = ports.sample(st, ports.write_key, self.table.key_bits());
            let val = ports.sample(st, ports.write_value, self.table.value_bits());
            self.table.write(key, val);
        }
        if ports.strobe(st, ports.lookup_en) {
            let key = ports.sample(st, ports.lookup_key, self.table.key_bits());
            let hit = self.table.lookup(&key);
            ports.drive(st, ports.matched, Bits::from_bool(hit.is_some()));
            let vw = self.table.value_bits();
            ports.drive(st, ports.value, hit.unwrap_or_else(|| Bits::zero(vw)));
        }
        // Unpaired CAM: nobody consumes removal reports.
        self.table.clear_removed();
    }

    fn resources(&self) -> IpBlock {
        IpBlock::Cam {
            entries: self.table.capacity(),
            key_bits: self.table.key_bits(),
            value_bits: self.table.value_bits(),
            native: self.native,
        }
    }

    fn frame_start(&mut self) {
        self.table.tick_frame();
        self.table.clear_removed();
    }

    fn cam_snapshots(&self) -> Vec<CamSnapshot> {
        vec![self.snapshot()]
    }

    fn reset_cam_stats(&mut self) {
        self.table.reset_stats();
    }
}

/// Two CAM port sets bound to one [`CamPair`]: entries on the two sides
/// exist in 1:1 correspondence, and any eviction or expiry on one side
/// atomically removes the partner entry from the other — the fix for
/// the paired-table desync where a round-robin overwrite in one table
/// left a half-dead mapping in its twin.
///
/// Each side speaks the same port protocol as [`CamModel`] under its
/// own prefix, so programs are unchanged.
pub struct PairedCamModel {
    prefix_a: String,
    prefix_b: String,
    native: bool,
    pair: CamPair,
    ports: Option<(CamPorts, CamPorts)>,
}

impl PairedCamModel {
    /// Binds `pair` to two port prefixes (side A, side B).
    pub fn new(prefix_a: &str, prefix_b: &str, pair: CamPair, native: bool) -> Self {
        PairedCamModel {
            prefix_a: prefix_a.to_string(),
            prefix_b: prefix_b.to_string(),
            native,
            pair,
            ports: None,
        }
    }

    /// The paired tables.
    pub fn pair(&self) -> &CamPair {
        &self.pair
    }

    /// Mutable access (preloads, tests).
    pub fn pair_mut(&mut self) -> &mut CamPair {
        &mut self.pair
    }

    fn snapshot_of(&self, prefix: &str, t: &CamTable) -> CamSnapshot {
        CamSnapshot {
            prefix: prefix.to_string(),
            capacity: t.capacity(),
            occupancy: t.occupancy(),
            stats: t.stats,
        }
    }
}

impl IpBlockModel for PairedCamModel {
    fn step(&mut self, prog: &Program, st: &mut MachineState) {
        let (pa, pb) = *self.ports.get_or_insert_with(|| {
            (
                CamPorts::resolve(prog, &self.prefix_a),
                CamPorts::resolve(prog, &self.prefix_b),
            )
        });
        if pa.strobe(st, pa.delete_en) {
            let key = pa.sample(st, pa.delete_key, self.pair.a.key_bits());
            self.pair.delete_a(&key);
        }
        if pa.strobe(st, pa.write_en) {
            let key = pa.sample(st, pa.write_key, self.pair.a.key_bits());
            let val = pa.sample(st, pa.write_value, self.pair.a.value_bits());
            self.pair.write_a(key, val);
        }
        if pa.strobe(st, pa.lookup_en) {
            let key = pa.sample(st, pa.lookup_key, self.pair.a.key_bits());
            let hit = self.pair.lookup_a(&key);
            pa.drive(st, pa.matched, Bits::from_bool(hit.is_some()));
            let vw = self.pair.a.value_bits();
            pa.drive(st, pa.value, hit.unwrap_or_else(|| Bits::zero(vw)));
        }
        if pb.strobe(st, pb.delete_en) {
            let key = pb.sample(st, pb.delete_key, self.pair.b.key_bits());
            self.pair.delete_b(&key);
        }
        if pb.strobe(st, pb.write_en) {
            let key = pb.sample(st, pb.write_key, self.pair.b.key_bits());
            let val = pb.sample(st, pb.write_value, self.pair.b.value_bits());
            self.pair.write_b(key, val);
        }
        if pb.strobe(st, pb.lookup_en) {
            let key = pb.sample(st, pb.lookup_key, self.pair.b.key_bits());
            let hit = self.pair.lookup_b(&key);
            pb.drive(st, pb.matched, Bits::from_bool(hit.is_some()));
            let vw = self.pair.b.value_bits();
            pb.drive(st, pb.value, hit.unwrap_or_else(|| Bits::zero(vw)));
        }
    }

    fn resources(&self) -> IpBlock {
        IpBlock::Cam {
            entries: self.pair.a.capacity(),
            key_bits: self.pair.a.key_bits(),
            value_bits: self.pair.a.value_bits(),
            native: self.native,
        }
    }

    fn resources_all(&self) -> Vec<IpBlock> {
        vec![
            IpBlock::Cam {
                entries: self.pair.a.capacity(),
                key_bits: self.pair.a.key_bits(),
                value_bits: self.pair.a.value_bits(),
                native: self.native,
            },
            IpBlock::Cam {
                entries: self.pair.b.capacity(),
                key_bits: self.pair.b.key_bits(),
                value_bits: self.pair.b.value_bits(),
                native: self.native,
            },
        ]
    }

    fn frame_start(&mut self) {
        self.pair.tick_frame();
    }

    fn cam_snapshots(&self) -> Vec<CamSnapshot> {
        vec![
            self.snapshot_of(&self.prefix_a, &self.pair.a),
            self.snapshot_of(&self.prefix_b, &self.pair.b),
        ]
    }

    fn reset_cam_stats(&mut self) {
        self.pair.a.reset_stats();
        self.pair.b.reset_stats();
    }
}

// ---------------------------------------------------------------------
// Pearson hash (Figure 5)
// ---------------------------------------------------------------------

/// Streaming Pearson hash unit with the Figure 5 seed handshake.
///
/// Ports: out `{p}_data_in` (8), `{p}_init_enable`, `{p}_feed_en`,
/// `{p}_clear`; in `{p}_init_ready`, `{p}_digest` (8).
///
/// Seeding (paper Figure 5): the program waits for `init_ready` low, puts
/// the seed on `data_in`, raises `init_enable`; the unit latches the seed,
/// raises `init_ready`; the program drops `init_enable`; the unit drops
/// `init_ready` and is seeded. Feeding: each cycle with `feed_en` high
/// absorbs one byte from `data_in`. `clear` resets the digest.
pub struct PearsonHashModel {
    prefix: String,
    h: u8,
    init_ready: bool,
    /// Bytes absorbed since the last clear/seed.
    pub fed: u64,
}

impl PearsonHashModel {
    /// Creates a hash unit bound to `prefix`.
    pub fn new(prefix: &str) -> Self {
        PearsonHashModel {
            prefix: prefix.to_string(),
            h: 0,
            init_ready: false,
            fed: 0,
        }
    }

    /// Declares the unit's ports.
    pub fn declare_ports(pb: &mut kiwi_ir::ProgramBuilder, prefix: &str) {
        pb.sig_out(&format!("{prefix}_data_in"), 8);
        pb.sig_out(&format!("{prefix}_init_enable"), 1);
        pb.sig_out(&format!("{prefix}_feed_en"), 1);
        pb.sig_out(&format!("{prefix}_clear"), 1);
        pb.sig_in(&format!("{prefix}_init_ready"), 1);
        pb.sig_in(&format!("{prefix}_digest"), 8);
    }
}

impl IpBlockModel for PearsonHashModel {
    fn step(&mut self, prog: &Program, st: &mut MachineState) {
        let p = &self.prefix;
        let data = out_val(prog, st, &format!("{p}_data_in")).to_u64() as u8;
        let init_en = out_val(prog, st, &format!("{p}_init_enable")).to_bool();
        let feed_en = out_val(prog, st, &format!("{p}_feed_en")).to_bool();
        let clear = out_val(prog, st, &format!("{p}_clear")).to_bool();

        if clear {
            self.h = 0;
            self.fed = 0;
        }
        if init_en && !self.init_ready {
            // Latch seed, acknowledge.
            self.h = PEARSON_TABLE[usize::from(data)];
            self.fed = 0;
            self.init_ready = true;
        } else if !init_en && self.init_ready {
            self.init_ready = false;
        } else if feed_en {
            self.h = PEARSON_TABLE[usize::from(self.h ^ data)];
            self.fed += 1;
        }

        st.drive(
            prog,
            &format!("{p}_init_ready"),
            Bits::from_bool(self.init_ready),
        );
        st.drive(
            prog,
            &format!("{p}_digest"),
            Bits::from_u64(u64::from(self.h), 8),
        );
    }

    fn resources(&self) -> IpBlock {
        IpBlock::Hash
    }
}

// ---------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------

/// A synchronous FIFO.
///
/// Ports: out `{p}_push`, `{p}_push_data`, `{p}_pop`; in `{p}_pop_data`,
/// `{p}_empty`, `{p}_full`. `pop_data` always shows the head; a `pop`
/// strobe consumes it. Pushing into a full FIFO drops the element (as an
/// overflowing output queue drops frames, §5's output-queue model).
pub struct FifoModel {
    prefix: String,
    width: u16,
    depth: usize,
    q: VecDeque<Bits>,
    /// Elements dropped on overflow.
    pub drops: u64,
}

impl FifoModel {
    /// Creates a FIFO bound to `prefix`.
    pub fn new(prefix: &str, depth: usize, width: u16) -> Self {
        FifoModel {
            prefix: prefix.to_string(),
            width,
            depth,
            q: VecDeque::new(),
            drops: 0,
        }
    }

    /// Declares the FIFO's ports.
    pub fn declare_ports(pb: &mut kiwi_ir::ProgramBuilder, prefix: &str, width: u16) {
        pb.sig_out(&format!("{prefix}_push"), 1);
        pb.sig_out(&format!("{prefix}_push_data"), width);
        pb.sig_out(&format!("{prefix}_pop"), 1);
        pb.sig_in(&format!("{prefix}_pop_data"), width);
        pb.sig_in(&format!("{prefix}_empty"), 1);
        pb.sig_in(&format!("{prefix}_full"), 1);
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

impl IpBlockModel for FifoModel {
    fn step(&mut self, prog: &Program, st: &mut MachineState) {
        let p = &self.prefix;
        if out_val(prog, st, &format!("{p}_pop")).to_bool() {
            self.q.pop_front();
        }
        if out_val(prog, st, &format!("{p}_push")).to_bool() {
            if self.q.len() >= self.depth {
                self.drops += 1;
            } else {
                self.q
                    .push_back(out_val(prog, st, &format!("{p}_push_data")).resize(self.width));
            }
        }
        let head = self
            .q
            .front()
            .cloned()
            .unwrap_or_else(|| Bits::zero(self.width));
        st.drive(prog, &format!("{p}_pop_data"), head);
        st.drive(
            prog,
            &format!("{p}_empty"),
            Bits::from_bool(self.q.is_empty()),
        );
        st.drive(
            prog,
            &format!("{p}_full"),
            Bits::from_bool(self.q.len() >= self.depth),
        );
    }

    fn resources(&self) -> IpBlock {
        IpBlock::Fifo {
            depth: self.depth,
            width: self.width,
        }
    }
}

// ---------------------------------------------------------------------
// NaughtyQ (the LRU recency queue of Figure 9)
// ---------------------------------------------------------------------

/// The slot-store + recency-queue block behind the paper's LRU cache
/// (Figure 9: `NaughtyQ.Enlist`, `NaughtyQ.Read`, `NaughtyQ.BackOfQ`).
///
/// Ports: out `{p}_op` (2: 0 idle, 1 enlist, 2 read, 3 back-of-q),
/// `{p}_value_in`, `{p}_idx_in`; in `{p}_idx_out`, `{p}_value_out`,
/// `{p}_evicted` (1), `{p}_evicted_idx`.
///
/// `Enlist` allocates a slot for a value (evicting the least-recently-used
/// slot when full — the eviction logic that would have to live in the
/// control plane under P4, §4.4) and reports the slot index. `Read`
/// returns a slot's value. `BackOfQ` marks a slot most-recently-used.
pub struct NaughtyQModel {
    prefix: String,
    width: u16,
    slots: Vec<Option<Bits>>,
    /// Recency order: front = least recently used.
    order: VecDeque<usize>,
}

impl NaughtyQModel {
    /// Creates a queue bound to `prefix` with `cap` slots.
    pub fn new(prefix: &str, cap: usize, width: u16) -> Self {
        NaughtyQModel {
            prefix: prefix.to_string(),
            width,
            slots: vec![None; cap],
            order: VecDeque::new(),
        }
    }

    /// Declares the block's ports.
    pub fn declare_ports(pb: &mut kiwi_ir::ProgramBuilder, prefix: &str, width: u16) {
        pb.sig_out(&format!("{prefix}_op"), 2);
        pb.sig_out(&format!("{prefix}_value_in"), width);
        pb.sig_out(&format!("{prefix}_idx_in"), 16);
        pb.sig_in(&format!("{prefix}_idx_out"), 16);
        pb.sig_in(&format!("{prefix}_value_out"), width);
        pb.sig_in(&format!("{prefix}_evicted"), 1);
        pb.sig_in(&format!("{prefix}_evicted_idx"), 16);
    }

    /// Live slot count.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

impl IpBlockModel for NaughtyQModel {
    fn step(&mut self, prog: &Program, st: &mut MachineState) {
        let p = &self.prefix;
        let op = out_val(prog, st, &format!("{p}_op")).to_u64();
        let mut evicted = false;
        let mut evicted_idx = 0usize;
        match op {
            1 => {
                // Enlist.
                let v = out_val(prog, st, &format!("{p}_value_in")).resize(self.width);
                let idx = if let Some(free) = self.slots.iter().position(|s| s.is_none()) {
                    free
                } else {
                    let lru = self.order.pop_front().unwrap_or(0);
                    evicted = true;
                    evicted_idx = lru;
                    lru
                };
                self.slots[idx] = Some(v);
                self.order.retain(|&i| i != idx);
                self.order.push_back(idx);
                st.drive(
                    prog,
                    &format!("{p}_idx_out"),
                    Bits::from_u64(idx as u64, 16),
                );
            }
            2 => {
                // Read.
                let idx = out_val(prog, st, &format!("{p}_idx_in")).to_u64() as usize;
                let v = self
                    .slots
                    .get(idx)
                    .and_then(|s| s.clone())
                    .unwrap_or_else(|| Bits::zero(self.width));
                st.drive(prog, &format!("{p}_value_out"), v);
            }
            3 => {
                // BackOfQ.
                let idx = out_val(prog, st, &format!("{p}_idx_in")).to_u64() as usize;
                if idx < self.slots.len() {
                    self.order.retain(|&i| i != idx);
                    self.order.push_back(idx);
                }
            }
            _ => {}
        }
        st.drive(prog, &format!("{p}_evicted"), Bits::from_bool(evicted));
        st.drive(
            prog,
            &format!("{p}_evicted_idx"),
            Bits::from_u64(evicted_idx as u64, 16),
        );
    }

    fn resources(&self) -> IpBlock {
        IpBlock::Fifo {
            depth: self.slots.len(),
            width: self.width,
        }
    }
}

// ---------------------------------------------------------------------
// BRAM
// ---------------------------------------------------------------------

/// Single-port block RAM with one-cycle read latency — the "on-chip
/// memory" scaling option of §5.4's optimizations discussion.
///
/// Ports: out `{p}_addr` (32), `{p}_wdata`, `{p}_we`; in `{p}_rdata`.
pub struct BramModel {
    prefix: String,
    width: u16,
    data: Vec<Bits>,
}

impl BramModel {
    /// Creates a RAM bound to `prefix` with `words` entries.
    pub fn new(prefix: &str, words: usize, width: u16) -> Self {
        BramModel {
            prefix: prefix.to_string(),
            width,
            data: vec![Bits::zero(width); words],
        }
    }

    /// Declares the RAM's ports.
    pub fn declare_ports(pb: &mut kiwi_ir::ProgramBuilder, prefix: &str, width: u16) {
        pb.sig_out(&format!("{prefix}_addr"), 32);
        pb.sig_out(&format!("{prefix}_wdata"), width);
        pb.sig_out(&format!("{prefix}_we"), 1);
        pb.sig_in(&format!("{prefix}_rdata"), width);
    }
}

impl IpBlockModel for BramModel {
    fn step(&mut self, prog: &Program, st: &mut MachineState) {
        let p = &self.prefix;
        let addr = out_val(prog, st, &format!("{p}_addr")).to_u64() as usize;
        if out_val(prog, st, &format!("{p}_we")).to_bool() {
            if let Some(slot) = self.data.get_mut(addr) {
                *slot = out_val(prog, st, &format!("{p}_wdata")).resize(self.width);
            }
        }
        let rd = self
            .data
            .get(addr)
            .cloned()
            .unwrap_or_else(|| Bits::zero(self.width));
        st.drive(prog, &format!("{p}_rdata"), rd);
    }

    fn resources(&self) -> IpBlock {
        IpBlock::Bram {
            bits: self.data.len() as u64 * u64::from(self.width),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiwi_ir::dsl::*;
    use kiwi_ir::interp::NullObserver;
    use kiwi_ir::{Machine, ProgramBuilder};

    #[test]
    fn cam_write_then_lookup_hits() {
        let mut pb = ProgramBuilder::new("t");
        let lookup_en = pb.sig_out("cam_lookup_en", 1);
        let lookup_key = pb.sig_out("cam_lookup_key", 48);
        let write_en = pb.sig_out("cam_write_en", 1);
        let write_key = pb.sig_out("cam_write_key", 48);
        let write_value = pb.sig_out("cam_write_value", 16);
        let m_in = pb.sig_in("cam_match", 1);
        let v_in = pb.sig_in("cam_value", 16);
        let matched = pb.reg("matched", 1);
        let value = pb.reg("value", 16);
        pb.thread(
            "main",
            vec![
                // Write 0xAABB -> 7.
                sig_write(write_key, lit(0xAABB, 48)),
                sig_write(write_value, lit(7, 16)),
                sig_write(write_en, lit(1, 1)),
                pause(),
                sig_write(write_en, lit(0, 1)),
                // Look it up.
                sig_write(lookup_key, lit(0xAABB, 48)),
                sig_write(lookup_en, lit(1, 1)),
                pause(),
                sig_write(lookup_en, lit(0, 1)),
                assign(matched, sig(m_in)),
                assign(value, sig(v_in)),
                halt(),
            ],
        );
        let prog = pb.build().unwrap();
        let mut m = Machine::new(kiwi_ir::flatten(&prog).unwrap());
        let mut env = IpEnv::new();
        env.attach(Box::new(CamModel::new("cam", 16, 48, 16, false)));
        m.run_cycles(10, &mut env, &mut NullObserver).unwrap();
        assert!(m.halted());
        assert_eq!(m.state().regs[0], 1, "lookup must match");
        assert_eq!(m.state().regs[1], 7);
    }

    #[test]
    fn cam_miss_reports_no_match() {
        let mut pb = ProgramBuilder::new("t");
        let lookup_en = pb.sig_out("cam_lookup_en", 1);
        let lookup_key = pb.sig_out("cam_lookup_key", 48);
        pb.sig_out("cam_write_en", 1);
        pb.sig_out("cam_write_key", 48);
        pb.sig_out("cam_write_value", 16);
        let m_in = pb.sig_in("cam_match", 1);
        pb.sig_in("cam_value", 16);
        let matched = pb.reg_init("matched", 1, Bits::from_u64(1, 1));
        pb.thread(
            "main",
            vec![
                sig_write(lookup_key, lit(0x1234, 48)),
                sig_write(lookup_en, lit(1, 1)),
                pause(),
                assign(matched, sig(m_in)),
                halt(),
            ],
        );
        let prog = pb.build().unwrap();
        let mut m = Machine::new(kiwi_ir::flatten(&prog).unwrap());
        let mut env = IpEnv::new();
        env.attach(Box::new(CamModel::new("cam", 4, 48, 16, false)));
        m.run_cycles(10, &mut env, &mut NullObserver).unwrap();
        assert_eq!(m.state().regs[0], 0);
    }

    #[test]
    fn cam_model_direct_eviction_round_robin() {
        // Drive the model directly (no program) to test replacement.
        let mut pb = ProgramBuilder::new("t");
        CamModel::declare_ports(&mut pb, "c", 8, 8);
        pb.thread("main", vec![halt()]);
        let prog = pb.build().unwrap();
        let mut st = kiwi_ir::MachineState::init(&prog);
        let mut cam = CamModel::new("c", 2, 8, 8, true);

        let we = prog.signal_by_name("c_write_en").unwrap();
        let wk = prog.signal_by_name("c_write_key").unwrap();
        let wv = prog.signal_by_name("c_write_value").unwrap();
        for i in 0..3u64 {
            st.sigs_out[we.0 as usize] = Bits::from_u64(1, 1);
            st.sigs_out[wk.0 as usize] = Bits::from_u64(i, 8);
            st.sigs_out[wv.0 as usize] = Bits::from_u64(i * 10, 8);
            cam.step(&prog, &mut st);
        }
        assert_eq!(cam.occupancy(), 2);
        assert_eq!(cam.stats().writes, 3);
        assert_eq!(cam.stats().evictions, 1);
    }

    #[test]
    fn cam_insert_accounts_stats_like_the_dataplane_path() {
        // The control-plane preload path must not be invisible to the
        // write/eviction counters.
        let mut cam = CamModel::new("c", 2, 8, 8, true);
        for i in 0..3u64 {
            cam.insert(Bits::from_u64(i, 8), Bits::from_u64(i * 10, 8));
        }
        assert_eq!(cam.occupancy(), 2);
        assert_eq!(cam.stats().writes, 3);
        assert_eq!(cam.stats().evictions, 1, "rr overwrite must count");
        // Replacing in place is a write, not an eviction.
        cam.insert(Bits::from_u64(2, 8), Bits::from_u64(99, 8));
        assert_eq!(cam.stats().writes, 4);
        assert_eq!(cam.stats().evictions, 1);
    }

    #[test]
    fn hash_handshake_matches_software_pearson() {
        // Program follows Figure 5: seed with 0x5A, then feed "ab".
        let mut pb = ProgramBuilder::new("t");
        let data_in = pb.sig_out("h_data_in", 8);
        let init_en = pb.sig_out("h_init_enable", 1);
        let feed_en = pb.sig_out("h_feed_en", 1);
        pb.sig_out("h_clear", 1);
        let ready = pb.sig_in("h_init_ready", 1);
        let digest = pb.sig_in("h_digest", 8);
        let out = pb.reg("out", 8);
        pb.thread(
            "main",
            vec![
                // Seed(0x5A), transliterating Figure 5.
                wait_until(lnot(sig(ready))),
                sig_write(data_in, lit(0x5A, 8)),
                sig_write(init_en, lit(1, 1)),
                pause(),
                wait_until(sig(ready)),
                pause(),
                sig_write(init_en, lit(0, 1)),
                pause(),
                // Feed 'a' then 'b'.
                sig_write(data_in, lit(b'a' as u64, 8)),
                sig_write(feed_en, lit(1, 1)),
                pause(),
                sig_write(data_in, lit(b'b' as u64, 8)),
                pause(),
                sig_write(feed_en, lit(0, 1)),
                pause(),
                assign(out, sig(digest)),
                halt(),
            ],
        );
        let prog = pb.build().unwrap();
        let mut m = Machine::new(kiwi_ir::flatten(&prog).unwrap());
        let mut env = IpEnv::new();
        env.attach(Box::new(PearsonHashModel::new("h")));
        m.run_cycles(40, &mut env, &mut NullObserver).unwrap();
        assert!(m.halted());
        let expect = emu_types::checksum::pearson8_seeded(0x5A, b"ab");
        assert_eq!(m.state().regs[0], u64::from(expect));
    }

    #[test]
    fn fifo_round_trip_and_overflow() {
        let mut pb = ProgramBuilder::new("t");
        FifoModel::declare_ports(&mut pb, "q", 16);
        pb.thread("main", vec![halt()]);
        let prog = pb.build().unwrap();
        let mut st = kiwi_ir::MachineState::init(&prog);
        let mut q = FifoModel::new("q", 2, 16);

        let push = prog.signal_by_name("q_push").unwrap();
        let pd = prog.signal_by_name("q_push_data").unwrap();
        let pop = prog.signal_by_name("q_pop").unwrap();

        for i in 1..=3u64 {
            st.sigs_out[push.0 as usize] = Bits::from_u64(1, 1);
            st.sigs_out[pd.0 as usize] = Bits::from_u64(i, 16);
            q.step(&prog, &mut st);
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.drops, 1);
        st.sigs_out[push.0 as usize] = Bits::from_u64(0, 1);

        // Head must be 1; pop it; head becomes 2.
        assert_eq!(st.signal(&prog, "q_pop_data").unwrap().to_u64(), 1);
        st.sigs_out[pop.0 as usize] = Bits::from_u64(1, 1);
        q.step(&prog, &mut st);
        assert_eq!(st.signal(&prog, "q_pop_data").unwrap().to_u64(), 2);
    }

    #[test]
    fn naughtyq_lru_eviction_order() {
        let mut pb = ProgramBuilder::new("t");
        NaughtyQModel::declare_ports(&mut pb, "nq", 32);
        pb.thread("main", vec![halt()]);
        let prog = pb.build().unwrap();
        let mut st = kiwi_ir::MachineState::init(&prog);
        let mut nq = NaughtyQModel::new("nq", 2, 32);

        let op = prog.signal_by_name("nq_op").unwrap();
        let vin = prog.signal_by_name("nq_value_in").unwrap();
        let iin = prog.signal_by_name("nq_idx_in").unwrap();

        // Enlist A, B (fills both slots).
        st.sigs_out[op.0 as usize] = Bits::from_u64(1, 2);
        st.sigs_out[vin.0 as usize] = Bits::from_u64(0xA, 32);
        nq.step(&prog, &mut st);
        let idx_a = st.signal(&prog, "nq_idx_out").unwrap().to_u64();
        st.sigs_out[vin.0 as usize] = Bits::from_u64(0xB, 32);
        nq.step(&prog, &mut st);

        // Touch A (BackOfQ) so B becomes LRU.
        st.sigs_out[op.0 as usize] = Bits::from_u64(3, 2);
        st.sigs_out[iin.0 as usize] = Bits::from_u64(idx_a, 16);
        nq.step(&prog, &mut st);

        // Enlist C: must evict B's slot, not A's.
        st.sigs_out[op.0 as usize] = Bits::from_u64(1, 2);
        st.sigs_out[vin.0 as usize] = Bits::from_u64(0xC, 32);
        nq.step(&prog, &mut st);
        assert_eq!(st.signal(&prog, "nq_evicted").unwrap().to_u64(), 1);

        // Read A's slot: still 0xA.
        st.sigs_out[op.0 as usize] = Bits::from_u64(2, 2);
        st.sigs_out[iin.0 as usize] = Bits::from_u64(idx_a, 16);
        nq.step(&prog, &mut st);
        assert_eq!(st.signal(&prog, "nq_value_out").unwrap().to_u64(), 0xA);
    }

    #[test]
    fn bram_read_write() {
        let mut pb = ProgramBuilder::new("t");
        BramModel::declare_ports(&mut pb, "m", 64);
        pb.thread("main", vec![halt()]);
        let prog = pb.build().unwrap();
        let mut st = kiwi_ir::MachineState::init(&prog);
        let mut ram = BramModel::new("m", 16, 64);

        let addr = prog.signal_by_name("m_addr").unwrap();
        let wd = prog.signal_by_name("m_wdata").unwrap();
        let we = prog.signal_by_name("m_we").unwrap();

        st.sigs_out[addr.0 as usize] = Bits::from_u64(5, 32);
        st.sigs_out[wd.0 as usize] = Bits::from_u64(0xFEED, 64);
        st.sigs_out[we.0 as usize] = Bits::from_u64(1, 1);
        ram.step(&prog, &mut st);
        st.sigs_out[we.0 as usize] = Bits::from_u64(0, 1);
        ram.step(&prog, &mut st);
        assert_eq!(st.signal(&prog, "m_rdata").unwrap().to_u64(), 0xFEED);

        // Out-of-range address reads zero and writes are dropped.
        st.sigs_out[addr.0 as usize] = Bits::from_u64(999, 32);
        ram.step(&prog, &mut st);
        assert_eq!(st.signal(&prog, "m_rdata").unwrap().to_u64(), 0);
    }
}
