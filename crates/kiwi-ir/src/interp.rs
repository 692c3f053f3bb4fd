//! Sequential tree-walking interpreter: the *reference* software
//! semantics.
//!
//! This is the slow-but-obviously-correct CPU backend. Production CPU
//! execution goes through the compiled micro-op backend in
//! [`mod@crate::compile`], which must stay byte-identical to this
//! interpreter (the differential suites compare them directly, and CI
//! runs the whole test suite once with the tree-walker forced via
//! `EMU_CPU_BACKEND=treewalk` so this reference cannot rot).
//!
//! The interpreter executes the flattened op stream of each thread until a
//! `Pause`, then hands control to the environment — virtual NICs, IP-block
//! behavioural models, the Mininet-analogue network — exactly once per
//! "cycle". Because the FSM target advances attached models once per clock
//! and the interpreter advances them once per pause, a program observes
//! the same handshake sequence on both targets (§3.4's hash-seed protocol
//! relies on this).

use crate::ast::{BinOp, Expr, IrError, IrResult, UnOp};
use crate::flat::{FlatProgram, Op};
use crate::program::{Program, SigDir};
use emu_types::Bits;

/// A register value as an [`Observer`] sees it: a register of 64 bits
/// or fewer passes its word and width, a wider one a reference to its
/// [`Bits`]. Narrow stores therefore reach the observer without building
/// a `Bits`.
#[derive(Debug, Clone, Copy)]
pub enum RegValue<'a> {
    /// A register of 64 bits or fewer: its canonical value and width.
    Narrow(u64, u16),
    /// A register wider than 64 bits.
    Wide(&'a Bits),
}

impl<'a> RegValue<'a> {
    /// Views `v` in the storage class its width selects.
    pub(crate) fn of(v: &'a Bits) -> Self {
        if v.width() <= 64 {
            RegValue::Narrow(v.to_u64(), v.width())
        } else {
            RegValue::Wide(v)
        }
    }

    /// Low 64 bits of the value.
    pub fn to_u64(self) -> u64 {
        match self {
            RegValue::Narrow(v, _) => v,
            RegValue::Wide(b) => b.to_u64(),
        }
    }

    /// The value as a [`Bits`] of the register's width.
    pub fn to_bits(self) -> Bits {
        match self {
            RegValue::Narrow(v, w) => Bits::from_u64(v, w),
            RegValue::Wide(b) => b.clone(),
        }
    }
}

/// Mutable machine state shared with the environment between cycles.
///
/// Storage is classed by width, as Emu keeps values in native 64-bit
/// words and uses wide user types only for wider fields (§3.2(iv)):
///
/// * registers and array elements of 64 bits or fewer are plain `u64`
///   words, canonical (bits above the declared width are zero);
/// * registers and array elements wider than that are [`Bits`];
/// * signals stay [`Bits`]: the IP-block models speak it, and there are
///   few of them.
///
/// An array's class follows its element width, so the 8-bit frame buffer
/// is a `Vec<u64>` and frame DMA is a plain copy. Every execution backend
/// resolves a register or array to its class from its declared width;
/// the compiled backend does so at lowering time, so its hot loop never
/// branches on class. [`MachineState::var`] and [`MachineState::set_var`]
/// give a class-blind view in [`Bits`] for drivers, tools and tests.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Registers of 64 bits or fewer, indexed by `VarId`. The entry of a
    /// wider register is unused and stays zero.
    pub regs: Vec<u64>,
    /// Registers wider than 64 bits, in declaration order.
    pub wide_regs: Vec<Bits>,
    /// Arrays with elements of 64 bits or fewer, indexed by `ArrId`. The
    /// entry of an array with wider elements is empty.
    pub arrays: Vec<Vec<u64>>,
    /// Arrays with elements wider than 64 bits, indexed by `ArrId`. The
    /// entry of an array with narrow elements is empty.
    pub wide_arrays: Vec<Vec<Bits>>,
    /// Latched input-signal values, indexed by `SigId` (entries for output
    /// signals are unused). The environment writes these in [`Env::tick`].
    pub sigs_in: Vec<Bits>,
    /// Current output-signal values, indexed by `SigId`.
    pub sigs_out: Vec<Bits>,
    /// Per-array write high-water mark, indexed by `ArrId`: one past the
    /// highest slot that may differ from zero. Every execution backend
    /// bumps this on every array store; platform drivers use it to bound
    /// how much of a buffer they must re-zero between frames, and reset
    /// it after re-filling a prefix.
    pub arr_high: Vec<usize>,
    /// Declared width of each register, indexed by `VarId`.
    reg_width: Vec<u16>,
    /// Index into `wide_regs` of each register wider than 64 bits,
    /// indexed by `VarId` (zero, and unused, for narrow registers).
    wide_slot: Vec<u32>,
}

impl MachineState {
    /// Builds the reset state for `prog`: registers and output signals at
    /// their declared init values, arrays loaded with their initializers.
    pub fn init(prog: &Program) -> Self {
        let mut regs = Vec::with_capacity(prog.vars().len());
        let mut wide_regs = Vec::new();
        let mut wide_slot = Vec::with_capacity(prog.vars().len());
        for v in prog.vars() {
            let init = v.init.resize(v.width);
            if v.width <= 64 {
                regs.push(init.to_u64());
                wide_slot.push(0);
            } else {
                regs.push(0);
                wide_slot.push(wide_regs.len() as u32);
                wide_regs.push(init);
            }
        }
        let (mut arrays, mut wide_arrays) = (Vec::new(), Vec::new());
        for a in prog.arrays() {
            let w = a.elem_width;
            if w <= 64 {
                let mut data = vec![0u64; a.len];
                for (i, v) in &a.init {
                    data[*i] = v.resize(w).to_u64();
                }
                arrays.push(data);
                wide_arrays.push(Vec::new());
            } else {
                let mut data = vec![Bits::zero(w); a.len];
                for (i, v) in &a.init {
                    data[*i] = v.resize(w);
                }
                arrays.push(Vec::new());
                wide_arrays.push(data);
            }
        }
        MachineState {
            regs,
            wide_regs,
            arrays,
            wide_arrays,
            arr_high: prog
                .arrays()
                .iter()
                .map(|a| a.init.iter().map(|(i, _)| i + 1).max().unwrap_or(0))
                .collect(),
            sigs_in: prog.signals().iter().map(|s| Bits::zero(s.width)).collect(),
            sigs_out: prog.signals().iter().map(|s| s.init.clone()).collect(),
            reg_width: prog.vars().iter().map(|v| v.width).collect(),
            wide_slot,
        }
    }

    /// Index into [`MachineState::wide_regs`] of register `id`, which
    /// must be wider than 64 bits.
    #[inline]
    pub(crate) fn wide_index(&self, id: u32) -> usize {
        self.wide_slot[id as usize] as usize
    }

    /// Register `id` in its storage class.
    #[inline]
    pub(crate) fn reg_value(&self, id: u32) -> RegValue<'_> {
        let w = self.reg_width[id as usize];
        if w <= 64 {
            RegValue::Narrow(self.regs[id as usize], w)
        } else {
            RegValue::Wide(&self.wide_regs[self.wide_index(id)])
        }
    }

    /// Reads register `id` as a [`Bits`] of its declared width.
    pub fn var(&self, id: u32) -> Bits {
        self.reg_value(id).to_bits()
    }

    /// Writes register `id`, truncating or zero-extending `v` to the
    /// register's declared width.
    pub fn set_var(&mut self, id: u32, v: &Bits) {
        let w = self.reg_width[id as usize];
        if w <= 64 {
            self.regs[id as usize] = v.resize(w).to_u64();
        } else {
            let i = self.wide_index(id);
            self.wide_regs[i] = v.resize(w);
        }
    }

    /// Assigns `v` to register `id` as a program statement does: reports
    /// the old and new values to `obs`, then stores `v` resized to the
    /// register's width.
    pub fn assign<O: Observer + ?Sized>(&mut self, id: u32, v: &Bits, obs: &mut O) {
        let v = v.resize(self.reg_width[id as usize]);
        obs.on_assign(id, self.reg_value(id), RegValue::of(&v));
        self.set_var(id, &v);
    }

    /// Reads slot `i` of array `arr` (element width `w`) as a [`Bits`];
    /// out-of-range reads are zero.
    pub fn arr_read(&self, arr: u32, i: usize, w: u16) -> Bits {
        if w <= 64 {
            Bits::from_u64(self.arrays[arr as usize].get(i).copied().unwrap_or(0), w)
        } else {
            self.wide_arrays[arr as usize]
                .get(i)
                .cloned()
                .unwrap_or_else(|| Bits::zero(w))
        }
    }

    /// Writes `v`, resized to the element width `w`, to slot `i` of array
    /// `arr` as a program statement does: out-of-range writes are
    /// dropped, and in-range ones lift the high-water mark.
    pub fn arr_write(&mut self, arr: u32, i: usize, v: &Bits, w: u16) {
        let a = arr as usize;
        let stored = if w <= 64 {
            self.arrays[a].get_mut(i).map(|s| *s = v.resize(w).to_u64())
        } else {
            self.wide_arrays[a].get_mut(i).map(|s| *s = v.resize(w))
        };
        if stored.is_some() {
            self.note_arr_write(a, i);
        }
    }

    /// Reads an input or output signal by id.
    pub fn signal(&self, prog: &Program, name: &str) -> Option<&Bits> {
        let id = prog.signal_by_name(name)?;
        let decl = prog.signal(id)?;
        Some(match decl.dir {
            SigDir::In => &self.sigs_in[id.0 as usize],
            SigDir::Out => &self.sigs_out[id.0 as usize],
        })
    }

    /// Records that array `arr` had slot `idx` written, lifting its
    /// high-water mark. Every array store in an execution backend must
    /// call this so platform drivers can trust [`MachineState::arr_high`].
    #[inline]
    pub fn note_arr_write(&mut self, arr: usize, idx: usize) {
        if self.arr_high[arr] < idx + 1 {
            self.arr_high[arr] = idx + 1;
        }
    }

    /// Drives an input signal by name; ignores unknown names.
    pub fn drive(&mut self, prog: &Program, name: &str, v: Bits) {
        if let Some(id) = prog.signal_by_name(name) {
            let w = prog.signal(id).map(|d| d.width).unwrap_or(1);
            self.sigs_in[id.0 as usize] = v.resize(w);
        }
    }
}

/// The environment a program runs inside: platform + IP blocks.
pub trait Env {
    /// Called once per cycle, after all threads have paused/halted. The
    /// environment samples output signals and arrays, steps its models,
    /// and drives input signals for the next cycle.
    fn tick(&mut self, cycle: u64, prog: &Program, state: &mut MachineState);

    /// Called once per delivered frame, before the frame is loaded into
    /// the core's buffer. Environments that model time in frame epochs
    /// (e.g. TTL-expiring tables) advance their clock here; idle cycles
    /// between frames never advance it. Defaults to a no-op.
    fn frame_start(&mut self) {}
}

/// An environment with no attached hardware: inputs stay zero.
pub struct NullEnv;

impl Env for NullEnv {
    fn tick(&mut self, _cycle: u64, _prog: &Program, _state: &mut MachineState) {}
}

/// Observer hooks used by the debug tooling on the software target.
pub trait Observer {
    /// A register was assigned.
    fn on_assign(&mut self, _var: u32, _old: RegValue<'_>, _new: RegValue<'_>) {}
    /// A label was crossed.
    fn on_label(&mut self, _name: &str) {}
    /// An extension point was crossed.
    fn on_ext_point(&mut self, _id: u32, _state: &mut MachineState) {}
}

/// A no-op observer.
pub struct NullObserver;

impl Observer for NullObserver {}

#[derive(Debug, Clone)]
struct ThreadCtx {
    pc: usize,
    halted: bool,
}

/// Interpreter instance for one program.
pub struct Machine {
    flat: FlatProgram,
    state: MachineState,
    threads: Vec<ThreadCtx>,
    cycle: u64,
    ops_executed: u64,
    /// Abort threshold for a single thread-cycle without a pause.
    pub max_ops_per_cycle: u64,
}

impl Machine {
    /// Builds a machine from a flattened program.
    pub fn new(flat: FlatProgram) -> Self {
        let state = MachineState::init(&flat.prog);
        let threads = flat
            .threads
            .iter()
            .map(|_| ThreadCtx {
                pc: 0,
                halted: false,
            })
            .collect();
        Machine {
            flat,
            state,
            threads,
            cycle: 0,
            ops_executed: 0,
            max_ops_per_cycle: 100_000,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.flat.prog
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total ops executed (software-target profiling).
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Immutable state access.
    pub fn state(&self) -> &MachineState {
        &self.state
    }

    /// Mutable state access (environment-side pokes between cycles).
    pub fn state_mut(&mut self) -> &mut MachineState {
        &mut self.state
    }

    /// True when every thread has halted.
    pub fn halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Runs one clock cycle: each live thread executes until it pauses or
    /// halts, then `env.tick` runs once.
    pub fn step_cycle(&mut self, env: &mut dyn Env, obs: &mut dyn Observer) -> IrResult<()> {
        for ti in 0..self.threads.len() {
            self.run_thread_to_pause(ti, obs)?;
        }
        self.cycle += 1;
        env.tick(self.cycle, &self.flat.prog, &mut self.state);
        Ok(())
    }

    /// Runs `n` cycles (stops early if all threads halt).
    pub fn run_cycles(
        &mut self,
        n: u64,
        env: &mut dyn Env,
        obs: &mut dyn Observer,
    ) -> IrResult<u64> {
        for i in 0..n {
            if self.halted() {
                return Ok(i);
            }
            self.step_cycle(env, obs)?;
        }
        Ok(n)
    }

    fn run_thread_to_pause(&mut self, ti: usize, obs: &mut dyn Observer) -> IrResult<()> {
        if self.threads[ti].halted {
            return Ok(());
        }
        // Split borrows: the op stream and program are read-only, state
        // and the thread context are mutated — so ops are executed in
        // place, never cloned.
        let max_ops = self.max_ops_per_cycle;
        let Machine {
            flat,
            state,
            threads,
            ops_executed,
            ..
        } = self;
        let thread = &flat.threads[ti];
        let prog = &flat.prog;
        let ctx = &mut threads[ti];
        let mut budget = max_ops;
        loop {
            let pc = ctx.pc;
            let Some(op) = thread.ops.get(pc) else {
                ctx.halted = true;
                return Ok(());
            };
            *ops_executed += 1;
            budget = budget.checked_sub(1).ok_or_else(|| {
                IrError(format!(
                    "thread {} exceeded {} ops without pausing (missing pause()?)",
                    thread.name, max_ops
                ))
            })?;
            match op {
                Op::Assign(dst, e) => {
                    let v = eval(e, prog, state);
                    state.assign(dst.0, &v, obs);
                    ctx.pc = pc + 1;
                }
                Op::ArrWrite(arr, idx, val) => {
                    let w = prog.array(*arr).expect("validated").elem_width;
                    let i = eval(idx, prog, state).to_u64() as usize;
                    let v = eval(val, prog, state);
                    state.arr_write(arr.0, i, &v, w);
                    ctx.pc = pc + 1;
                }
                Op::SigWrite(sig, val) => {
                    let w = prog.signal(*sig).expect("validated").width;
                    let v = eval(val, prog, state).resize(w);
                    state.sigs_out[sig.0 as usize] = v;
                    ctx.pc = pc + 1;
                }
                Op::Branch(cond, if_false) => {
                    let c = eval(cond, prog, state);
                    ctx.pc = if c.to_bool() { pc + 1 } else { *if_false };
                }
                Op::Jump(t) => {
                    ctx.pc = *t;
                }
                Op::Pause => {
                    ctx.pc = pc + 1;
                    return Ok(());
                }
                Op::Label(name) => {
                    obs.on_label(name);
                    ctx.pc = pc + 1;
                }
                Op::ExtPoint(id) => {
                    obs.on_ext_point(*id, state);
                    ctx.pc = pc + 1;
                }
                Op::Halt => {
                    ctx.halted = true;
                    return Ok(());
                }
            }
        }
    }
}

/// Evaluates an expression against machine state.
///
/// Follows the width rules of [`crate::ast`]: binary operands are
/// zero-extended to the result width; comparisons are unsigned; shift
/// amounts ≥ width produce zero; out-of-range array reads produce zero.
pub fn eval(e: &Expr, prog: &Program, st: &MachineState) -> Bits {
    match e {
        Expr::Const(b) => b.clone(),
        Expr::Var(v) => st.var(v.0),
        Expr::ArrRead(a, idx) => {
            let w = prog.array(*a).expect("validated").elem_width;
            let i = eval(idx, prog, st).to_u64() as usize;
            st.arr_read(a.0, i, w)
        }
        Expr::SigRead(s) => {
            let decl = prog.signal(*s).expect("validated");
            match decl.dir {
                SigDir::In => st.sigs_in[s.0 as usize].clone(),
                SigDir::Out => st.sigs_out[s.0 as usize].clone(),
            }
        }
        Expr::Un(op, e) => {
            let v = eval(e, prog, st);
            match op {
                UnOp::Not => v.not(),
                UnOp::Neg => Bits::zero(v.width()).wrapping_sub(&v),
                UnOp::RedOr => Bits::from_bool(!v.is_zero()),
            }
        }
        Expr::Bin(op, l, r) => {
            let lv = eval(l, prog, st);
            let rv = eval(r, prog, st);
            let w = lv.width().max(rv.width());
            let lw = lv.resize(w);
            let rw = rv.resize(w);
            use std::cmp::Ordering::*;
            match op {
                BinOp::Add => lw.wrapping_add(&rw),
                BinOp::Sub => lw.wrapping_sub(&rw),
                BinOp::Mul => lw.wrapping_mul(&rw),
                BinOp::And => lw.and(&rw),
                BinOp::Or => lw.or(&rw),
                BinOp::Xor => lw.xor(&rw),
                BinOp::Shl => {
                    let n = rv.to_u64().min(u64::from(u32::MAX)) as u32;
                    lv.shl(n)
                }
                BinOp::Shr => {
                    let n = rv.to_u64().min(u64::from(u32::MAX)) as u32;
                    lv.shr(n)
                }
                BinOp::Eq => Bits::from_bool(lw == rw),
                BinOp::Ne => Bits::from_bool(lw != rw),
                BinOp::Lt => Bits::from_bool(lw.cmp_u(&rw) == Less),
                BinOp::Le => Bits::from_bool(lw.cmp_u(&rw) != Greater),
                BinOp::Gt => Bits::from_bool(lw.cmp_u(&rw) == Greater),
                BinOp::Ge => Bits::from_bool(lw.cmp_u(&rw) != Less),
            }
        }
        Expr::Mux(c, t, e2) => {
            let tv = eval(t, prog, st);
            let ev = eval(e2, prog, st);
            let w = tv.width().max(ev.width());
            if eval(c, prog, st).to_bool() {
                tv.resize(w)
            } else {
                ev.resize(w)
            }
        }
        Expr::Slice(e, hi, lo) => eval(e, prog, st).slice(*hi, *lo),
        Expr::Concat(h, l) => eval(h, prog, st).concat(&eval(l, prog, st)),
        Expr::Resize(e, w) => eval(e, prog, st).resize(*w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::flat::flatten;
    use crate::program::{ArrayBacking, ProgramBuilder};

    fn machine(pb: ProgramBuilder) -> Machine {
        Machine::new(flatten(&pb.build().unwrap()).unwrap())
    }

    #[test]
    fn counter_counts() {
        let mut pb = ProgramBuilder::new("counter");
        let c = pb.reg("c", 32);
        pb.thread(
            "main",
            vec![forever(vec![assign(c, add(var(c), lit(1, 32))), pause()])],
        );
        let mut m = machine(pb);
        m.run_cycles(10, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().regs[0], 10);
        assert_eq!(m.cycle(), 10);
    }

    #[test]
    fn halting_program_stops() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread("main", vec![assign(a, lit(42, 8)), halt()]);
        let mut m = machine(pb);
        let ran = m.run_cycles(100, &mut NullEnv, &mut NullObserver).unwrap();
        assert!(m.halted());
        assert!(ran <= 2);
        assert_eq!(m.state().regs[0], 42);
    }

    #[test]
    fn missing_pause_detected() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![forever(vec![assign(a, add(var(a), lit(1, 8)))])],
        );
        let mut m = machine(pb);
        m.max_ops_per_cycle = 1000;
        let err = m.step_cycle(&mut NullEnv, &mut NullObserver).unwrap_err();
        assert!(err.0.contains("without pausing"));
    }

    #[test]
    fn arrays_read_write_with_oob_semantics() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 16);
        let t = pb.array("t", 16, 4, ArrayBacking::LutRam);
        pb.thread(
            "main",
            vec![
                arr_write(t, lit(2, 8), lit(0xbeef, 16)),
                arr_write(t, lit(200, 8), lit(0xdead, 16)), // dropped
                assign(a, arr_read(t, lit(2, 8))),
                halt(),
            ],
        );
        let mut m = machine(pb);
        m.run_cycles(5, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().regs[0], 0xbeef);
        assert!(m.state().arrays[0].iter().all(|&b| b != 0xdead));
    }

    #[test]
    fn oob_array_read_is_zero() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 16);
        let t = pb.array("t", 16, 4, ArrayBacking::LutRam);
        pb.thread(
            "main",
            vec![
                arr_write(t, lit(0, 8), lit(7, 16)),
                assign(a, arr_read(t, lit(99, 8))),
                halt(),
            ],
        );
        let mut m = machine(pb);
        m.run_cycles(5, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().regs[0], 0);
    }

    #[test]
    fn signal_handshake_with_env() {
        // Program: waits for `ready`, then writes `done` = 1.
        let mut pb = ProgramBuilder::new("p");
        let ready = pb.sig_in("ready", 1);
        let done = pb.sig_out("done", 1);
        pb.thread(
            "main",
            vec![wait_until(sig(ready)), sig_write(done, lit(1, 1)), halt()],
        );

        struct RaiseAt(u64);
        impl Env for RaiseAt {
            fn tick(&mut self, cycle: u64, prog: &Program, st: &mut MachineState) {
                if cycle >= self.0 {
                    st.drive(prog, "ready", Bits::from_u64(1, 1));
                }
            }
        }

        let mut m = machine(pb);
        let mut env = RaiseAt(3);
        m.run_cycles(10, &mut env, &mut NullObserver).unwrap();
        assert!(m.halted());
        assert_eq!(m.state().sigs_out[1].to_u64(), 1);
        // It must have taken at least 3 cycles of waiting.
        assert!(m.cycle() >= 3);
    }

    #[test]
    fn two_threads_run_in_lockstep() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 32);
        let b = pb.reg("b", 32);
        pb.thread(
            "t0",
            vec![forever(vec![assign(a, add(var(a), lit(1, 32))), pause()])],
        );
        pb.thread(
            "t1",
            vec![forever(vec![assign(b, add(var(b), lit(2, 32))), pause()])],
        );
        let mut m = machine(pb);
        m.run_cycles(5, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().regs[0], 5);
        assert_eq!(m.state().regs[1], 10);
    }

    #[test]
    fn observer_sees_assignments_and_labels() {
        #[derive(Default)]
        struct Spy {
            assigns: u32,
            labels: Vec<String>,
            exts: Vec<u32>,
        }
        impl Observer for Spy {
            fn on_assign(&mut self, _v: u32, _o: RegValue<'_>, _n: RegValue<'_>) {
                self.assigns += 1;
            }
            fn on_label(&mut self, n: &str) {
                self.labels.push(n.into());
            }
            fn on_ext_point(&mut self, id: u32, _s: &mut MachineState) {
                self.exts.push(id);
            }
        }
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![label("start"), assign(a, lit(1, 8)), ext_point(7), halt()],
        );
        let mut m = machine(pb);
        let mut spy = Spy::default();
        m.run_cycles(3, &mut NullEnv, &mut spy).unwrap();
        assert_eq!(spy.assigns, 1);
        assert_eq!(spy.labels, vec!["start".to_string()]);
        assert_eq!(spy.exts, vec![7]);
    }

    #[test]
    fn mux_and_compare_semantics() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 8);
        pb.thread(
            "main",
            vec![
                assign(a, lit(200, 8)),
                assign(b, mux(gt(var(a), lit(100, 8)), lit(1, 8), lit(2, 8))),
                halt(),
            ],
        );
        let mut m = machine(pb);
        m.run_cycles(3, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().regs[1], 1);
    }

    #[test]
    fn neg_and_redor() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 1);
        pb.thread(
            "main",
            vec![
                assign(a, neg(lit(1, 8))),
                assign(b, nonzero(var(a))),
                halt(),
            ],
        );
        let mut m = machine(pb);
        m.run_cycles(3, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().regs[0], 0xff);
        assert_eq!(m.state().regs[1], 1);
    }
}
