//! Program-side IP block wrappers: CAM, streaming hash, and the Figure 9
//! LRU cache.
//!
//! §3.4: "While C# provides an easy development environment, to maximize
//! the performance of a design it is sometimes recommended to use
//! specialized IP blocks... These blocks are accessible through the
//! facilities of Kiwi." Each wrapper declares the block's boundary
//! signals on the program and generates the statement sequences that
//! drive its protocol; the matching behavioural models live in
//! `emu-rtl::ipblocks` and are attached to the environment at run time.

use kiwi_ir::dsl::*;
use kiwi_ir::{Expr, ProgramBuilder, SigId, Stmt, VarId};

/// Program-side interface to a CAM block.
#[derive(Debug, Clone, Copy)]
pub struct CamIf {
    lookup_en: SigId,
    lookup_key: SigId,
    write_en: SigId,
    write_key: SigId,
    write_value: SigId,
    matched: SigId,
    value: SigId,
    key_bits: u16,
    value_bits: u16,
}

impl CamIf {
    /// Declares the CAM ports under `prefix`.
    pub fn declare(pb: &mut ProgramBuilder, prefix: &str, key_bits: u16, value_bits: u16) -> Self {
        CamIf {
            lookup_en: pb.sig_out(&format!("{prefix}_lookup_en"), 1),
            lookup_key: pb.sig_out(&format!("{prefix}_lookup_key"), key_bits),
            write_en: pb.sig_out(&format!("{prefix}_write_en"), 1),
            write_key: pb.sig_out(&format!("{prefix}_write_key"), key_bits),
            write_value: pb.sig_out(&format!("{prefix}_write_value"), value_bits),
            matched: pb.sig_in(&format!("{prefix}_match"), 1),
            value: pb.sig_in(&format!("{prefix}_value"), value_bits),
            key_bits,
            value_bits,
        }
    }

    /// Key width in bits.
    pub fn key_bits(&self) -> u16 {
        self.key_bits
    }

    /// Value width in bits.
    pub fn value_bits(&self) -> u16 {
        self.value_bits
    }

    /// Launches a lookup for `key`; results are valid after the embedded
    /// pause (read them with [`CamIf::matched`] / [`CamIf::value`]).
    pub fn lookup(&self, key: Expr) -> Vec<Stmt> {
        vec![
            sig_write(self.lookup_key, key),
            sig_write(self.lookup_en, tru()),
            pause(),
            sig_write(self.lookup_en, fls()),
        ]
    }

    /// Match flag of the most recent lookup.
    pub fn matched(&self) -> Expr {
        sig(self.matched)
    }

    /// Value of the most recent lookup.
    pub fn value(&self) -> Expr {
        sig(self.value)
    }

    /// Inserts `key → value` (replaces in place on key match, else fills
    /// a free slot, else evicts round-robin; see `emu-rtl`'s model).
    pub fn write(&self, key: Expr, value: Expr) -> Vec<Stmt> {
        vec![
            sig_write(self.write_key, key),
            sig_write(self.write_value, value),
            sig_write(self.write_en, tru()),
            pause(),
            sig_write(self.write_en, fls()),
        ]
    }
}

/// Optional delete extension of the CAM protocol (used by Memcached's
/// DELETE command). Declared separately so CAM users without deletion
/// pay nothing.
#[derive(Debug, Clone, Copy)]
pub struct CamDeleteIf {
    delete_en: SigId,
    delete_key: SigId,
}

impl CamDeleteIf {
    /// Declares the delete strobe/key under the same `prefix` as the CAM.
    pub fn declare(pb: &mut ProgramBuilder, prefix: &str, key_bits: u16) -> Self {
        CamDeleteIf {
            delete_en: pb.sig_out(&format!("{prefix}_delete_en"), 1),
            delete_key: pb.sig_out(&format!("{prefix}_delete_key"), key_bits),
        }
    }

    /// Removes `key` from the CAM (no-op when absent).
    pub fn delete(&self, key: Expr) -> Vec<Stmt> {
        vec![
            sig_write(self.delete_key, key),
            sig_write(self.delete_en, tru()),
            pause(),
            sig_write(self.delete_en, fls()),
        ]
    }
}

/// Program-side interface to the streaming Pearson hash unit.
#[derive(Debug, Clone, Copy)]
pub struct HashIf {
    data_in: SigId,
    init_enable: SigId,
    feed_en: SigId,
    clear: SigId,
    init_ready: SigId,
    digest: SigId,
}

impl HashIf {
    /// Declares the hash unit's ports under `prefix`.
    pub fn declare(pb: &mut ProgramBuilder, prefix: &str) -> Self {
        HashIf {
            data_in: pb.sig_out(&format!("{prefix}_data_in"), 8),
            init_enable: pb.sig_out(&format!("{prefix}_init_enable"), 1),
            feed_en: pb.sig_out(&format!("{prefix}_feed_en"), 1),
            clear: pb.sig_out(&format!("{prefix}_clear"), 1),
            init_ready: pb.sig_in(&format!("{prefix}_init_ready"), 1),
            digest: pb.sig_in(&format!("{prefix}_digest"), 8),
        }
    }

    /// The seed protocol of Figure 5, transliterated:
    ///
    /// ```csharp
    /// while (init_hash_ready) { Kiwi.Pause(); }
    /// PearsonHash.data_in = data_in;
    /// init_hash_enable = true;  Kiwi.Pause();
    /// while (!init_hash_ready) { Kiwi.Pause(); }  Kiwi.Pause();
    /// init_hash_enable = false; Kiwi.Pause();
    /// ```
    pub fn seed(&self, data: Expr) -> Vec<Stmt> {
        vec![
            wait_until(lnot(sig(self.init_ready))),
            sig_write(self.data_in, data),
            sig_write(self.init_enable, tru()),
            pause(),
            wait_until(sig(self.init_ready)),
            pause(),
            sig_write(self.init_enable, fls()),
            pause(),
        ]
    }

    /// Feeds one byte into the digest (one cycle).
    pub fn feed(&self, data: Expr) -> Vec<Stmt> {
        vec![
            sig_write(self.data_in, data),
            sig_write(self.feed_en, tru()),
            pause(),
            sig_write(self.feed_en, fls()),
        ]
    }

    /// Clears the digest (one cycle).
    pub fn clear(&self) -> Vec<Stmt> {
        vec![
            sig_write(self.clear, tru()),
            pause(),
            sig_write(self.clear, fls()),
        ]
    }

    /// The current digest value.
    pub fn digest(&self) -> Expr {
        sig(self.digest)
    }
}

/// Program-side interface to the NaughtyQ slot store (Figure 9).
#[derive(Debug, Clone, Copy)]
pub struct NaughtyQIf {
    op: SigId,
    value_in: SigId,
    idx_in: SigId,
    idx_out: SigId,
    value_out: SigId,
    evicted: SigId,
    evicted_idx: SigId,
}

impl NaughtyQIf {
    /// Declares the block's ports under `prefix`.
    pub fn declare(pb: &mut ProgramBuilder, prefix: &str, width: u16) -> Self {
        NaughtyQIf {
            op: pb.sig_out(&format!("{prefix}_op"), 2),
            value_in: pb.sig_out(&format!("{prefix}_value_in"), width),
            idx_in: pb.sig_out(&format!("{prefix}_idx_in"), 16),
            idx_out: pb.sig_in(&format!("{prefix}_idx_out"), 16),
            value_out: pb.sig_in(&format!("{prefix}_value_out"), width),
            evicted: pb.sig_in(&format!("{prefix}_evicted"), 1),
            evicted_idx: pb.sig_in(&format!("{prefix}_evicted_idx"), 16),
        }
    }

    /// `NaughtyQ.Enlist(value)`: allocates a slot; index readable via
    /// [`NaughtyQIf::idx_out`] after the pause.
    pub fn enlist(&self, value: Expr) -> Vec<Stmt> {
        vec![
            sig_write(self.value_in, value),
            sig_write(self.op, lit(1, 2)),
            pause(),
            sig_write(self.op, lit(0, 2)),
        ]
    }

    /// `NaughtyQ.Read(idx)`: value readable via [`NaughtyQIf::value_out`]
    /// after the pause.
    pub fn read(&self, idx: Expr) -> Vec<Stmt> {
        vec![
            sig_write(self.idx_in, idx),
            sig_write(self.op, lit(2, 2)),
            pause(),
            sig_write(self.op, lit(0, 2)),
        ]
    }

    /// `NaughtyQ.BackOfQ(idx)`: marks the slot most recently used.
    pub fn back_of_q(&self, idx: Expr) -> Vec<Stmt> {
        vec![
            sig_write(self.idx_in, idx),
            sig_write(self.op, lit(3, 2)),
            pause(),
            sig_write(self.op, lit(0, 2)),
        ]
    }

    /// Slot index returned by the last enlist.
    pub fn idx_out(&self) -> Expr {
        sig(self.idx_out)
    }

    /// Value returned by the last read.
    pub fn value_out(&self) -> Expr {
        sig(self.value_out)
    }

    /// Whether the last enlist evicted a slot.
    pub fn evicted(&self) -> Expr {
        sig(self.evicted)
    }

    /// The evicted slot index.
    pub fn evicted_idx(&self) -> Expr {
        sig(self.evicted_idx)
    }
}

/// The look-aside LRU cache of Figure 9, assembled from a HashCAM and a
/// NaughtyQ exactly as the paper's C# does.
#[derive(Debug, Clone, Copy)]
pub struct LruIf {
    /// Key → slot-index CAM ("HashCAM").
    pub cam: CamIf,
    /// Slot store + recency queue.
    pub q: NaughtyQIf,
}

impl LruIf {
    /// Declares both sub-blocks under `prefix`.
    pub fn declare(pb: &mut ProgramBuilder, prefix: &str, key_bits: u16, value_bits: u16) -> Self {
        LruIf {
            cam: CamIf::declare(pb, &format!("{prefix}_cam"), key_bits, 16),
            q: NaughtyQIf::declare(pb, &format!("{prefix}_q"), value_bits),
        }
    }

    /// `LRU.Lookup(key)` (Figure 9): sets `matched` and `result`, touching
    /// the entry on hit:
    ///
    /// ```csharp
    /// ulong idx = HashCAM.Read(key_in);
    /// if (HashCAM.matched) {
    ///     res.result = NaughtyQ.Read(idx);
    ///     NaughtyQ.BackOfQ(idx);
    /// }
    /// ```
    pub fn lookup(
        &self,
        key: Expr,
        matched: VarId,
        result: VarId,
        idx_scratch: VarId,
    ) -> Vec<Stmt> {
        let mut out = self.cam.lookup(key);
        out.push(assign(matched, self.cam.matched()));
        out.push(assign(idx_scratch, self.cam.value()));
        let mut hit = self.q.read(resize(var(idx_scratch), 16));
        hit.push(assign(result, self.q.value_out()));
        hit.extend(self.q.back_of_q(resize(var(idx_scratch), 16)));
        out.push(if_then(var(matched), hit));
        out
    }

    /// `LRU.Cache(key, value)` (Figure 9):
    ///
    /// ```csharp
    /// ulong idx = NaughtyQ.Enlist(value_in);
    /// HashCAM.Write(key_in, idx);
    /// ```
    pub fn cache(&self, key: Expr, value: Expr, idx_scratch: VarId) -> Vec<Stmt> {
        let mut out = self.q.enlist(value);
        out.push(assign(idx_scratch, self.q.idx_out()));
        out.extend(self.cam.write(key, resize(var(idx_scratch), 16)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_rtl::{CamModel, IpEnv, NaughtyQModel, PearsonHashModel, RtlMachine};
    use kiwi_ir::interp::NullObserver;

    #[test]
    fn cam_if_round_trip_on_rtl() {
        let mut pb = ProgramBuilder::new("t");
        let cam = CamIf::declare(&mut pb, "cam", 48, 16);
        let m = pb.reg("m", 1);
        let v = pb.reg("v", 16);
        let mut body = cam.write(lit(0xABCD, 48), lit(321, 16));
        body.extend(cam.lookup(lit(0xABCD, 48)));
        body.push(assign(m, cam.matched()));
        body.push(assign(v, cam.value()));
        body.push(halt());
        pb.thread("main", body);
        let prog = pb.build().unwrap();
        let mut rtl = RtlMachine::new(kiwi::compile(&prog).unwrap());
        let mut env = IpEnv::new();
        env.attach(Box::new(CamModel::new("cam", 8, 48, 16, false)));
        rtl.run_cycles(50, &mut env, &mut NullObserver).unwrap();
        assert!(rtl.halted());
        assert_eq!(rtl.state().regs[0], 1);
        assert_eq!(rtl.state().regs[1], 321);
    }

    #[test]
    fn hash_if_digest_matches_reference() {
        let mut pb = ProgramBuilder::new("t");
        let h = HashIf::declare(&mut pb, "h");
        let d = pb.reg("d", 8);
        let mut body = h.seed(lit(7, 8));
        for byte in b"net" {
            body.extend(h.feed(lit(u64::from(*byte), 8)));
        }
        body.push(assign(d, h.digest()));
        body.push(halt());
        pb.thread("main", body);
        let prog = pb.build().unwrap();
        let mut rtl = RtlMachine::new(kiwi::compile(&prog).unwrap());
        let mut env = IpEnv::new();
        env.attach(Box::new(PearsonHashModel::new("h")));
        rtl.run_cycles(100, &mut env, &mut NullObserver).unwrap();
        assert!(rtl.halted());
        let expect = emu_types::checksum::pearson8_seeded(7, b"net");
        assert_eq!(rtl.state().regs[0], u64::from(expect));
    }

    #[test]
    fn lru_figure9_semantics() {
        // Cache k1→v1, k2→v2 (capacity 2), look up k1 (hit, touches it),
        // cache k3→v3 (evicts k2's slot), then: k1 still readable, k3
        // readable.
        let mut pb = ProgramBuilder::new("lru");
        let lru = LruIf::declare(&mut pb, "lru", 64, 64);
        let m = pb.reg("m", 1);
        let r = pb.reg("r", 64);
        let idx = pb.reg("idx", 16);
        let m2 = pb.reg("m2", 1);
        let r2 = pb.reg("r2", 64);

        let mut body = lru.cache(lit(1, 64), lit(0x11, 64), idx);
        body.extend(lru.cache(lit(2, 64), lit(0x22, 64), idx));
        body.extend(lru.lookup(lit(1, 64), m, r, idx));
        body.extend(lru.cache(lit(3, 64), lit(0x33, 64), idx));
        body.extend(lru.lookup(lit(3, 64), m2, r2, idx));
        body.push(halt());
        pb.thread("main", body);
        let prog = pb.build().unwrap();
        let mut rtl = RtlMachine::new(kiwi::compile(&prog).unwrap());
        let mut env = IpEnv::new();
        env.attach(Box::new(CamModel::new("lru_cam", 4, 64, 16, false)));
        env.attach(Box::new(NaughtyQModel::new("lru_q", 2, 64)));
        rtl.run_cycles(200, &mut env, &mut NullObserver).unwrap();
        assert!(rtl.halted());
        let st = rtl.state();
        assert_eq!(st.regs[0], 1, "k1 lookup must hit");
        assert_eq!(st.regs[1], 0x11);
        assert_eq!(st.regs[3], 1, "k3 lookup must hit");
        assert_eq!(st.regs[4], 0x33);
    }
}
