//! The TraceVM interpreter.
//!
//! Executes a verified [`Program`] sequentially under the deterministic
//! [`CostModel`], emitting trace events to a [`TraceSink`]. This models
//! one Hydra CPU running JIT-compiled (possibly annotation-instrumented)
//! code while the TEST hardware snoops retired memory operations and
//! annotation instructions.
//!
//! Annotation cycle costs are tallied per component
//! ([`AnnotationCycles`]) so the profiling-slowdown breakdown of the
//! paper's Figure 6 (loop markers vs local-variable annotations vs
//! statistics reads) can be reported from a single run.
//!
//! # Runs
//!
//! Cycles and fuel are charged per *run*: the straight-line stretch
//! from a pc up to and including the next control transfer (`Goto`,
//! `AGoto`, `If*`, `Call`, `Return*`, `Halt`). A run table, built once
//! per execution, gives every pc the cycles of its function's code
//! through that pc (`cum`) and the length of the run starting there.
//! Entering a run charges its whole length against fuel and fixes a
//! cycle base, so an event at `pc` is stamped `base + cum[pc]` and
//! allocation words shift the base. Straight-line code therefore
//! retires with no per-instruction bookkeeping; the operand stack is a
//! buffer indexed by a local stack pointer, and the frame's fields live
//! in locals.
//!
//! One loop body is compiled in two modes, chosen at every run entry:
//!
//! * *bulk*, monomorphized per sink and hook, runs whole runs as above;
//! * *exact* keeps the per-instruction order: probe a pending call
//!   result, then count the instruction and check fuel. It runs while
//!   a call's result is pending (the probe must precede every
//!   instruction until the value is consumed) and when a run would
//!   cross the fuel limit, so [`VmError::FuelExhausted`] fires at the
//!   same instruction, after the same events, as a per-instruction
//!   count would. It takes the sink and hook as trait objects, so it
//!   exists once in the binary.
//!
//! Both modes emit the same events with the same stamps; only where
//! the bookkeeping happens differs.

use crate::cost::CostModel;
use crate::error::VmError;
use crate::hotloc::{LocationHook, NoHook};
use crate::isa::{ElemKind, Instr, Pc};
use crate::mem::Memory;
use crate::program::{FuncId, Program};
use crate::trace::{Cycles, TraceSink};
use crate::value::Value;
use crate::WORD_BYTES;

/// Cycles spent executing annotation instructions, by component
/// (Figure 6's stacked bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnotationCycles {
    /// `sloop` / `eloop` / `eoi` markers.
    pub markers: u64,
    /// `lwl` / `swl` local-variable annotations.
    pub locals: u64,
    /// End-of-STL statistics read routines.
    pub stats_reads: u64,
    /// Edge-splitting plumbing branches ([`crate::isa::Instr::AGoto`])
    /// the annotation compiler inserts to detour through trampolines.
    pub plumbing: u64,
}

impl AnnotationCycles {
    /// Total annotation cycles. Since the annotation compiler inserts
    /// only instructions tallied here, subtracting this total from an
    /// annotated run's cycles yields the plain program's cycles
    /// exactly.
    pub fn total(&self) -> u64 {
        self.markers + self.locals + self.stats_reads + self.plumbing
    }
}

/// A completed run together with its final memory image.
///
/// The loop-rescue verifier and the differential fuzzer compare two
/// program variants for *bit-identical* final state: same return value
/// and the same word-for-word heap (statics segment included). Since
/// allocation is a deterministic bump allocator, semantically equal
/// runs produce equal images.
#[derive(Debug, Clone)]
pub struct FinalState {
    /// The ordinary run outcome (cycles, instructions, return value).
    pub result: RunResult,
    /// The memory exactly as the program left it.
    pub memory: Memory,
}

/// The outcome of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Total simulated cycles.
    pub cycles: Cycles,
    /// Retired instruction count.
    pub instructions: u64,
    /// The entry function's return value, if it returned one. `None`
    /// after `Halt` or a void return.
    pub ret: Option<Value>,
    /// Cycle breakdown of annotation overhead.
    pub annotation_cycles: AnnotationCycles,
}

#[derive(Clone, Copy)]
struct Frame {
    func: u16,
    /// where execution resumes: the return pc of a suspended caller
    pc: u32,
    locals_base: usize,
    stack_base: usize,
    activation: u32,
    /// the `Call` instruction that created this frame (None for entry)
    call_site: Option<Pc>,
    /// the most recent value-returning call whose result still sits
    /// unconsumed on the operand stack: (site, stack index of value)
    pending_result: Option<(Pc, usize)>,
    /// a return value parked in a local by `Store` (register move):
    /// the real use is the first `Load` of that local
    pending_local: Option<(Pc, u16)>,
}

/// One pc's row of its function's run table.
#[derive(Clone, Copy)]
struct Step {
    /// Cycles of the function's code through this pc, inclusive.
    cum: u64,
    /// This pc's own cost.
    cost: u32,
    /// Instructions from this pc up to and including the next control
    /// transfer.
    run: u32,
}

impl Step {
    /// Cycles of the function's code before this pc.
    #[inline]
    fn before(self) -> u64 {
        self.cum - u64::from(self.cost)
    }
}

/// The run table of `code`: one row per pc, then a sentinel row at
/// `code.len()` (cost 0, an empty run) so a pc that ran off the end
/// still reads its clock.
fn run_table(code: &[Instr], cost: &CostModel) -> Vec<Step> {
    let mut rows = Vec::with_capacity(code.len() + 1);
    let mut cum = 0u64;
    for instr in code {
        let c = cost.cost(instr);
        cum += u64::from(c);
        rows.push(Step {
            cum,
            cost: c,
            run: 1,
        });
    }
    rows.push(Step {
        cum,
        cost: 0,
        run: 0,
    });
    for pc in (0..code.len()).rev() {
        if !(code[pc].is_terminator() || matches!(code[pc], Instr::Call(_))) {
            rows[pc].run = rows[pc + 1].run + 1;
        }
    }
    rows
}

/// Why one mode's loop handed control back.
enum Exit {
    /// The program finished with this return value.
    Done(Option<Value>),
    /// The run just entered needs the other mode.
    Switch,
}

/// The whole execution state, parked here whenever control passes
/// between the two modes; each mode keeps its hot part in locals.
struct Machine<'p> {
    program: &'p Program,
    cost: CostModel,
    fuel: u64,
    entry_returns: bool,
    /// per function, its [`run_table`]
    table: Vec<Vec<Step>>,
    mem: Memory,
    /// the operand stack: `sp` live slots, the rest spare capacity
    stack: Vec<Value>,
    sp: usize,
    locals: Vec<Value>,
    /// suspended callers
    frames: Vec<Frame>,
    frame: Frame,
    next_activation: u32,
    /// the clock at the current run's entry
    now: Cycles,
    instructions: u64,
    ann: AnnotationCycles,
}

/// The interpreter. Use the associated functions [`Interp::run`] /
/// [`Interp::run_with`]; there is no long-lived interpreter object.
#[derive(Debug)]
pub struct Interp;

impl Interp {
    /// Default instruction budget: generous for every benchmark in this
    /// workspace, small enough to catch accidental infinite loops.
    pub const DEFAULT_FUEL: u64 = 2_000_000_000;

    /// Runs `program` from its entry function with default cost model
    /// and fuel.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution (type errors, bounds,
    /// division by zero, fuel exhaustion, …).
    pub fn run<S: TraceSink>(program: &Program, sink: &mut S) -> Result<RunResult, VmError> {
        Self::run_with(program, sink, CostModel::default(), Self::DEFAULT_FUEL)
    }

    /// Runs `program` with an explicit cost model and instruction
    /// budget.
    ///
    /// # Errors
    ///
    /// As [`Interp::run`]; additionally [`VmError::FuelExhausted`] once
    /// `fuel` instructions have retired.
    pub fn run_with<S: TraceSink>(
        program: &Program,
        sink: &mut S,
        cost: CostModel,
        fuel: u64,
    ) -> Result<RunResult, VmError> {
        Self::run_to_state(program, sink, cost, fuel).map(|s| s.result)
    }

    /// Like [`Interp::run`], but additionally hands back the final
    /// [`Memory`] image for state-equivalence checks.
    ///
    /// # Errors
    ///
    /// As [`Interp::run`].
    pub fn run_state<S: TraceSink>(program: &Program, sink: &mut S) -> Result<FinalState, VmError> {
        Self::run_to_state(program, sink, CostModel::default(), Self::DEFAULT_FUEL)
    }

    /// Runs `program` and returns both the [`RunResult`] and the final
    /// memory image.
    ///
    /// # Errors
    ///
    /// As [`Interp::run_with`].
    pub fn run_to_state<S: TraceSink>(
        program: &Program,
        sink: &mut S,
        cost: CostModel,
        fuel: u64,
    ) -> Result<FinalState, VmError> {
        Self::run_to_state_hooked(program, sink, cost, fuel, &mut NoHook)
    }

    /// Like [`Interp::run`], but with a [`LocationHook`] observing every
    /// reached instruction. Hooks are free in simulated time: cycles,
    /// trace events, and program results are identical to an un-hooked
    /// run. This is the counting-tier entry point (`jrpm::tier`).
    ///
    /// # Errors
    ///
    /// As [`Interp::run`].
    pub fn run_hooked<S: TraceSink, H: LocationHook>(
        program: &Program,
        sink: &mut S,
        hook: &mut H,
    ) -> Result<RunResult, VmError> {
        Self::run_to_state_hooked(
            program,
            sink,
            CostModel::default(),
            Self::DEFAULT_FUEL,
            hook,
        )
        .map(|s| s.result)
    }

    /// The fully general entry point: hooked, costed, fuelled, and
    /// returning the final memory image. All other `run_*` methods
    /// delegate here (with [`NoHook`], whose probe monomorphizes away).
    ///
    /// # Errors
    ///
    /// As [`Interp::run_with`].
    pub fn run_to_state_hooked<S: TraceSink, H: LocationHook>(
        program: &Program,
        sink: &mut S,
        cost: CostModel,
        fuel: u64,
        hook: &mut H,
    ) -> Result<FinalState, VmError> {
        let entry = program.function(program.entry)?;
        if entry.n_params != 0 {
            return Err(VmError::Verify {
                func: program.entry.0,
                at: 0,
                reason: "entry function must take no parameters".into(),
            });
        }
        let mut m = Machine {
            program,
            cost,
            fuel,
            entry_returns: entry.returns,
            table: program
                .functions
                .iter()
                .map(|f| run_table(&f.code, &cost))
                .collect(),
            mem: Memory::new(&program.globals),
            stack: vec![Value::Int(0); 64],
            sp: 0,
            locals: vec![Value::Int(0); entry.n_locals as usize],
            frames: Vec::with_capacity(16),
            frame: Frame {
                func: program.entry.0,
                pc: 0,
                locals_base: 0,
                stack_base: 0,
                activation: 0,
                call_site: None,
                pending_result: None,
                pending_local: None,
            },
            next_activation: 1,
            now: 0,
            instructions: 0,
            ann: AnnotationCycles::default(),
        };
        let mut exact = false;
        let ret = loop {
            let exit = if exact {
                m.exec_exact(sink, hook)?
            } else {
                m.exec::<false, S, H>(sink, hook)?
            };
            match exit {
                Exit::Done(ret) => break ret,
                Exit::Switch => exact = !exact,
            }
        };
        Ok(FinalState {
            result: RunResult {
                cycles: m.now,
                instructions: m.instructions,
                ret,
                annotation_cycles: m.ann,
            },
            memory: m.mem,
        })
    }
}

impl Machine<'_> {
    /// The exact mode, compiled once for every sink and hook type.
    #[inline(never)]
    fn exec_exact(
        &mut self,
        sink: &mut dyn TraceSink,
        hook: &mut dyn LocationHook,
    ) -> Result<Exit, VmError> {
        self.exec::<true, _, _>(sink, hook)
    }

    /// Runs from the current run entry until the program finishes or a
    /// run needs the other mode (`EXACT` selects this one).
    fn exec<const EXACT: bool, S: TraceSink + ?Sized, H: LocationHook + ?Sized>(
        &mut self,
        sink: &mut S,
        hook: &mut H,
    ) -> Result<Exit, VmError> {
        let Machine {
            program,
            cost,
            fuel,
            entry_returns,
            table,
            mem,
            stack,
            sp: sp_slot,
            locals,
            frames,
            frame: frame_slot,
            next_activation,
            now: now_slot,
            instructions: instructions_slot,
            ann,
        } = self;
        let (program, cost, fuel, table) = (*program, *cost, *fuel, &*table);
        let mut sp = *sp_slot;
        let mut fr = *frame_slot;
        let mut now = *now_slot;
        let mut instructions = *instructions_slot;
        let mut pc = fr.pc as usize;
        let mut code: &[Instr] = &program.function(FuncId(fr.func))?.code;
        let mut rows: &[Step] = &table[fr.func as usize];
        // the stack buffer and the frame's locals as slices held in
        // locals, so their lengths stay in registers; each is re-taken
        // whenever its vector changes
        let mut buf: &mut [Value] = stack;
        let mut lv: &mut [Value] = &mut locals[fr.locals_base..];

        macro_rules! park {
            () => {
                fr.pc = pc as u32;
                *frame_slot = fr;
                *sp_slot = sp;
                *now_slot = now;
                *instructions_slot = instructions;
            };
        }
        macro_rules! push {
            ($v:expr) => {{
                let v = $v;
                match buf.get_mut(sp) {
                    Some(slot) => *slot = v,
                    None => {
                        buf = grow(stack);
                        buf[sp] = v;
                    }
                }
                sp += 1;
            }};
        }
        // `sp == 0` wraps to an index past the buffer: one compare
        // covers both underflow and the bounds check
        macro_rules! pop {
            () => {{
                sp = sp.wrapping_sub(1);
                *buf.get(sp).ok_or(VmError::StackUnderflow)?
            }};
        }
        macro_rules! top {
            () => {
                buf.get_mut(sp.wrapping_sub(1))
                    .ok_or(VmError::StackUnderflow)?
            };
        }
        macro_rules! bin_int {
            (|$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!().as_int()?;
                let slot = top!();
                let $a = slot.as_int()?;
                *slot = Value::Int($e);
            }};
        }
        macro_rules! bin_float {
            (|$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!().as_float()?;
                let slot = top!();
                let $a = slot.as_float()?;
                *slot = Value::Float($e);
            }};
        }
        macro_rules! un_float {
            ($f:expr) => {{
                let slot = top!();
                *slot = Value::Float($f(slot.as_float()?));
            }};
        }
        macro_rules! local {
            ($l:expr) => {
                lv.get_mut($l.0 as usize).ok_or(VmError::BadLocal($l.0))?
            };
        }
        // a pending return value is "used" once anything shortened the
        // stack past it (store, arithmetic, argument pop, ...)
        macro_rules! probe {
            ($now:expr) => {
                if let Some((site, idx)) = fr.pending_result {
                    if sp <= idx {
                        sink.call_result_use(site, $now);
                        fr.pending_result = None;
                    }
                }
            };
        }
        macro_rules! use_parked {
            ($l:expr, $now:expr) => {
                if let Some((site, pl)) = fr.pending_local {
                    if pl == $l.0 {
                        sink.call_result_use(site, $now);
                        fr.pending_local = None;
                    }
                }
            };
        }

        'run: loop {
            // entering the run that starts at `pc`, with the clock at `now`
            let Some(&entry) = rows.get(pc) else {
                probe!(now);
                return Err(VmError::FellOffEnd(fr.func));
            };
            if (fr.pending_result.is_some() || fuel - instructions < u64::from(entry.run)) != EXACT
            {
                park!();
                return Ok(Exit::Switch);
            }
            if !EXACT {
                instructions += u64::from(entry.run);
            }
            let mut base = now.wrapping_sub(entry.before());
            // the clock after the instruction at `pc` retired
            macro_rules! now {
                () => {
                    base.wrapping_add(rows[pc].cum)
                };
            }
            macro_rules! here {
                () => {
                    Pc {
                        func: FuncId(fr.func),
                        idx: pc as u32,
                    }
                };
            }

            loop {
                if EXACT {
                    probe!(base.wrapping_add(rows[pc].before()));
                }
                let instr = *code.get(pc).ok_or(VmError::FellOffEnd(fr.func))?;
                hook.at(fr.func, pc as u32);
                if EXACT {
                    instructions += 1;
                    if instructions > fuel {
                        return Err(VmError::FuelExhausted);
                    }
                }

                match instr {
                    Instr::IConst(v) => push!(Value::Int(v)),
                    Instr::FConst(v) => push!(Value::Float(v)),
                    Instr::NullConst => push!(Value::Null),
                    Instr::Load(l) => {
                        use_parked!(l, now!());
                        let v = *local!(l);
                        push!(v);
                    }
                    Instr::Store(l) => {
                        // a return value moved straight into a local is
                        // merely parked; its first Load is the real use.
                        // Overwriting a parked local before any read
                        // means the value was dead: drop the tracking.
                        match fr.pending_result {
                            Some((site, idx)) if EXACT && idx + 1 == sp => {
                                fr.pending_result = None;
                                fr.pending_local = Some((site, l.0));
                            }
                            _ => {
                                if matches!(fr.pending_local, Some((_, pl)) if pl == l.0) {
                                    fr.pending_local = None;
                                }
                            }
                        }
                        let v = pop!();
                        *local!(l) = v;
                    }
                    Instr::IInc(l, by) => {
                        use_parked!(l, now!());
                        let slot = local!(l);
                        *slot = Value::Int(slot.as_int()?.wrapping_add(i64::from(by)));
                    }
                    Instr::Dup => {
                        let v = *top!();
                        push!(v);
                    }
                    Instr::Pop => {
                        let _ = pop!();
                    }
                    Instr::Swap => {
                        let b = pop!();
                        let slot = top!();
                        let a = *slot;
                        *slot = b;
                        push!(a);
                    }

                    Instr::IAdd => bin_int!(|a, b| a.wrapping_add(b)),
                    Instr::ISub => bin_int!(|a, b| a.wrapping_sub(b)),
                    Instr::IMul => bin_int!(|a, b| a.wrapping_mul(b)),
                    Instr::IDiv => bin_int!(|a, b| {
                        if b == 0 {
                            return Err(VmError::DivisionByZero);
                        }
                        a.wrapping_div(b)
                    }),
                    Instr::IRem => bin_int!(|a, b| {
                        if b == 0 {
                            return Err(VmError::DivisionByZero);
                        }
                        a.wrapping_rem(b)
                    }),
                    Instr::INeg => {
                        let slot = top!();
                        *slot = Value::Int(slot.as_int()?.wrapping_neg());
                    }
                    Instr::IAnd => bin_int!(|a, b| a & b),
                    Instr::IOr => bin_int!(|a, b| a | b),
                    Instr::IXor => bin_int!(|a, b| a ^ b),
                    Instr::IShl => bin_int!(|a, b| a.wrapping_shl(b as u32 & 63)),
                    Instr::IShr => bin_int!(|a, b| a.wrapping_shr(b as u32 & 63)),
                    Instr::IUShr => bin_int!(|a, b| ((a as u64) >> (b as u32 & 63)) as i64),
                    Instr::IMin => bin_int!(|a, b| a.min(b)),
                    Instr::IMax => bin_int!(|a, b| a.max(b)),
                    Instr::ICmp => bin_int!(|a, b| i64::from(a.cmp(&b) as i8)),

                    Instr::FAdd => bin_float!(|a, b| a + b),
                    Instr::FSub => bin_float!(|a, b| a - b),
                    Instr::FMul => bin_float!(|a, b| a * b),
                    Instr::FDiv => bin_float!(|a, b| a / b),
                    Instr::FMin => bin_float!(|a, b| a.min(b)),
                    Instr::FMax => bin_float!(|a, b| a.max(b)),
                    Instr::FNeg => un_float!(|a: f64| -a),
                    Instr::FAbs => un_float!(f64::abs),
                    Instr::FSqrt => un_float!(f64::sqrt),
                    Instr::FSin => un_float!(f64::sin),
                    Instr::FCos => un_float!(f64::cos),
                    Instr::FExp => un_float!(f64::exp),
                    Instr::FLog => un_float!(f64::ln),
                    Instr::I2F => {
                        let slot = top!();
                        *slot = Value::Float(slot.as_int()? as f64);
                    }
                    Instr::F2I => {
                        let slot = top!();
                        *slot = Value::Int(slot.as_float()? as i64);
                    }

                    Instr::Goto(t) => {
                        now = now!();
                        pc = t as usize;
                        continue 'run;
                    }
                    Instr::AGoto(t) => {
                        ann.plumbing += u64::from(cost.simple);
                        now = now!();
                        pc = t as usize;
                        continue 'run;
                    }
                    Instr::If(c, t) => {
                        let a = pop!().as_int()?;
                        now = now!();
                        pc = if c.eval_int(a, 0) { t as usize } else { pc + 1 };
                        continue 'run;
                    }
                    Instr::IfICmp(c, t) => {
                        let b = pop!().as_int()?;
                        let a = pop!().as_int()?;
                        now = now!();
                        pc = if c.eval_int(a, b) { t as usize } else { pc + 1 };
                        continue 'run;
                    }
                    Instr::IfFCmp(c, t) => {
                        let b = pop!().as_float()?;
                        let a = pop!().as_float()?;
                        now = now!();
                        pc = if c.eval_float(a, b) {
                            t as usize
                        } else {
                            pc + 1
                        };
                        continue 'run;
                    }

                    Instr::NewArray(kind) => {
                        let len = pop!().as_int()?;
                        if len < 0 || len > i64::from(u32::MAX / WORD_BYTES) - 2 {
                            return Err(VmError::BadArrayLength(len));
                        }
                        let n = len as u32;
                        let addr = mem.alloc(n + 1, kind)?;
                        mem.write(addr, Value::Int(len))?;
                        base = base.wrapping_add(u64::from(cost.alloc_per_word) * u64::from(n));
                        // zero-initialization produces speculative store state
                        let (t, at) = (now!(), here!());
                        sink.heap_store(addr, t, at);
                        for w in 0..n {
                            sink.heap_store(addr + (w + 1) * WORD_BYTES, t, at);
                        }
                        push!(Value::Ref(addr));
                    }
                    Instr::ALoad => {
                        let idx = pop!().as_int()?;
                        let arr = pop!().as_ref_addr()?;
                        let addr = array_elem_addr(mem, arr, idx)?;
                        let v = mem.read(addr)?;
                        sink.heap_load(addr, now!(), here!());
                        push!(v);
                    }
                    Instr::AStore => {
                        let v = pop!();
                        let idx = pop!().as_int()?;
                        let arr = pop!().as_ref_addr()?;
                        let addr = array_elem_addr(mem, arr, idx)?;
                        mem.write(addr, v)?;
                        sink.heap_store(addr, now!(), here!());
                    }
                    Instr::ArrayLen => {
                        let slot = top!();
                        let arr = slot.as_ref_addr()?;
                        *slot = Value::Int(mem.read(arr)?.as_int()?);
                    }
                    Instr::NewObject(cid) => {
                        let class = program.class(cid)?;
                        let n = class.fields.len() as u32;
                        // header word records the field count for bounds checks
                        let obj = mem.alloc(n + 1, ElemKind::Int)?;
                        mem.write(obj, Value::Int(i64::from(n)))?;
                        let (t, at) = (now!(), here!());
                        for (i, &kind) in class.fields.iter().enumerate() {
                            let addr = obj + (i as u32 + 1) * WORD_BYTES;
                            let zero = match kind {
                                ElemKind::Int => Value::Int(0),
                                ElemKind::Float => Value::Float(0.0),
                                ElemKind::Ref => Value::Null,
                            };
                            mem.write(addr, zero)?;
                            sink.heap_store(addr, t, at);
                        }
                        base = base.wrapping_add(u64::from(cost.alloc_per_word) * u64::from(n));
                        push!(Value::Ref(obj));
                    }
                    Instr::GetField(idx) => {
                        let obj = pop!().as_ref_addr()?;
                        let addr = field_addr(mem, obj, idx)?;
                        let v = mem.read(addr)?;
                        sink.heap_load(addr, now!(), here!());
                        push!(v);
                    }
                    Instr::PutField(idx) => {
                        let v = pop!();
                        let obj = pop!().as_ref_addr()?;
                        let addr = field_addr(mem, obj, idx)?;
                        mem.write(addr, v)?;
                        sink.heap_store(addr, now!(), here!());
                    }
                    Instr::GetStatic(g) => {
                        let addr = mem.global_addr(g.0);
                        let v = mem.read(addr)?;
                        sink.heap_load(addr, now!(), here!());
                        push!(v);
                    }
                    Instr::PutStatic(g) => {
                        let v = pop!();
                        let addr = mem.global_addr(g.0);
                        let (t, at) = (now!(), here!());
                        if let Value::Int(i) = v {
                            sink.static_store(g.0, i, t, at);
                        }
                        mem.write(addr, v)?;
                        sink.heap_store(addr, t, at);
                    }

                    Instr::Call(fid) => {
                        let callee = program.function(fid)?;
                        let n_args = callee.n_params as usize;
                        if sp < fr.stack_base + n_args {
                            return Err(VmError::StackUnderflow);
                        }
                        let args_start = sp - n_args;
                        let locals_base = locals.len();
                        locals.extend_from_slice(&buf[args_start..sp]);
                        locals.resize(locals_base + callee.n_locals as usize, Value::Int(0));
                        lv = &mut locals[locals_base..];
                        sp = args_start;
                        now = now!();
                        let site = here!();
                        fr.pc = pc as u32 + 1;
                        frames.push(fr);
                        sink.call_enter(site, *next_activation, now);
                        fr = Frame {
                            func: fid.0,
                            pc: 0,
                            locals_base,
                            stack_base: sp,
                            activation: *next_activation,
                            call_site: Some(site),
                            pending_result: None,
                            pending_local: None,
                        };
                        *next_activation += 1;
                        code = &callee.code;
                        rows = &table[fid.0 as usize];
                        pc = 0;
                        continue 'run;
                    }
                    Instr::Return | Instr::ReturnVoid => {
                        let ret_val = match instr {
                            Instr::Return => Some(pop!()),
                            _ => None,
                        };
                        sp = sp.min(fr.stack_base);
                        locals.truncate(fr.locals_base);
                        now = now!();
                        let ret_site = fr.call_site;
                        if let Some(site) = ret_site {
                            sink.call_exit(site, now);
                        }
                        let Some(caller) = frames.pop() else {
                            // the entry function returned
                            park!();
                            return Ok(Exit::Done(ret_val.filter(|_| *entry_returns)));
                        };
                        fr = caller;
                        pc = fr.pc as usize;
                        lv = &mut locals[fr.locals_base..];
                        code = &program.function(FuncId(fr.func))?.code;
                        rows = &table[fr.func as usize];
                        if let Some(v) = ret_val {
                            push!(v);
                            if let Some(site) = ret_site {
                                fr.pending_result = Some((site, sp - 1));
                            }
                        }
                        continue 'run;
                    }
                    Instr::Halt => {
                        now = now!();
                        park!();
                        return Ok(Exit::Done(None));
                    }

                    Instr::SLoop(id, n) => {
                        ann.markers += u64::from(cost.loop_marker);
                        sink.loop_enter(id, n, fr.activation, now!());
                    }
                    Instr::Eoi(id) => {
                        ann.markers += u64::from(cost.eoi_marker);
                        sink.loop_iter(id, now!());
                    }
                    Instr::ELoop(id, _n) => {
                        ann.markers += u64::from(cost.loop_marker);
                        sink.loop_exit(id, now!());
                    }
                    Instr::Lwl(v) => {
                        ann.locals += u64::from(cost.local_annotation);
                        sink.local_load(v, fr.activation, now!(), here!());
                    }
                    Instr::Swl(v) => {
                        ann.locals += u64::from(cost.local_annotation);
                        sink.local_store(v, fr.activation, now!(), here!());
                    }
                    Instr::ReadStats(id) => {
                        ann.stats_reads += u64::from(cost.read_stats);
                        sink.stats_read(id, now!());
                    }
                }
                pc += 1;
            }
        }
    }
}

/// Doubles a full operand-stack buffer and hands back all of it.
#[cold]
#[inline(never)]
fn grow(stack: &mut Vec<Value>) -> &mut [Value] {
    stack.resize(2 * stack.len(), Value::Int(0));
    stack
}

#[inline]
fn array_elem_addr(mem: &Memory, base: u32, idx: i64) -> Result<u32, VmError> {
    let len = mem.read(base)?.as_int()?;
    if idx < 0 || idx >= len {
        return Err(VmError::IndexOutOfBounds { index: idx, len });
    }
    Ok(base + (idx as u32 + 1) * WORD_BYTES)
}

#[inline]
fn field_addr(mem: &Memory, base: u32, idx: u16) -> Result<u32, VmError> {
    let n = mem.read(base)?.as_int()?;
    if i64::from(idx) >= n {
        return Err(VmError::IndexOutOfBounds {
            index: i64::from(idx),
            len: n,
        });
    }
    Ok(base + (u32::from(idx) + 1) * WORD_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ProgramBuilder;
    use crate::isa::Cond;
    use crate::trace::{CountingSink, NullSink};

    #[test]
    fn out_of_range_local_is_a_typed_error() {
        // hand-assembled (the builder cannot produce this): Load of a
        // slot past the frame must fail closed, not panic
        use crate::program::{Function, Program};
        let p = Program {
            functions: vec![Function {
                name: "main".into(),
                n_params: 0,
                n_locals: 1,
                returns: false,
                code: vec![Instr::Load(crate::isa::Local(7)), Instr::ReturnVoid],
            }],
            classes: Vec::new(),
            globals: Vec::new(),
            entry: FuncId(0),
        };
        assert_eq!(
            Interp::run(&p, &mut NullSink).unwrap_err(),
            VmError::BadLocal(7)
        );
    }

    #[test]
    fn cycles_accumulate_deterministically() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            f.ci(2).ci(3).iadd().ret();
        });
        let p = b.finish(main).unwrap();
        let r1 = Interp::run(&p, &mut NullSink).unwrap();
        let r2 = Interp::run(&p, &mut NullSink).unwrap();
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.ret.unwrap().as_int().unwrap(), 5);
        // iconst(1) + iconst(1) + iadd(1) + return(2)
        assert_eq!(r1.cycles, 5);
    }

    #[test]
    fn heap_events_are_emitted() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let a = f.local();
            f.ci(4).newarray(ElemKind::Int).st(a);
            f.arr_set(
                a,
                |f| {
                    f.ci(0);
                },
                |f| {
                    f.ci(9);
                },
            );
            f.arr_get(a, |f| {
                f.ci(0);
            })
            .drop_top();
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let mut sink = CountingSink::default();
        Interp::run(&p, &mut sink).unwrap();
        // 5 init stores (header + 4 elems) + 1 astore
        assert_eq!(sink.stores, 6);
        assert_eq!(sink.loads, 1);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            f.ci(1).ci(0).idiv().ret();
        });
        let p = b.finish(main).unwrap();
        assert_eq!(
            Interp::run(&p, &mut NullSink).unwrap_err(),
            VmError::DivisionByZero
        );
    }

    #[test]
    fn fuel_exhaustion_stops_infinite_loops() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let head = f.new_label();
            f.bind(head);
            f.goto(head);
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let err = Interp::run_with(&p, &mut NullSink, CostModel::default(), 1000).unwrap_err();
        assert_eq!(err, VmError::FuelExhausted);
    }

    #[test]
    fn out_of_bounds_array_access() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            let a = f.local();
            f.ci(2).newarray(ElemKind::Int).st(a);
            f.arr_get(a, |f| {
                f.ci(5);
            })
            .ret();
        });
        let p = b.finish(main).unwrap();
        assert!(matches!(
            Interp::run(&p, &mut NullSink).unwrap_err(),
            VmError::IndexOutOfBounds { index: 5, len: 2 }
        ));
    }

    #[test]
    fn object_fields_roundtrip() {
        let mut b = ProgramBuilder::new();
        let cls = b.class(&[ElemKind::Int, ElemKind::Float]);
        let main = b.function("main", 0, true, |f| {
            let o = f.local();
            f.newobject(cls).st(o);
            f.ld(o).ci(41).putfield(0);
            f.ld(o).getfield(0).ci(1).iadd().ret();
        });
        let p = b.finish(main).unwrap();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        assert_eq!(r.ret.unwrap().as_int().unwrap(), 42);
    }

    #[test]
    fn statics_are_traced_heap_accesses() {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            f.ci(7).putstatic(g);
            f.getstatic(g).ret();
        });
        let p = b.finish(main).unwrap();
        let mut sink = CountingSink::default();
        let r = Interp::run(&p, &mut sink).unwrap();
        assert_eq!(r.ret.unwrap().as_int().unwrap(), 7);
        assert_eq!(sink.stores, 1);
        assert_eq!(sink.loads, 1);
    }

    #[test]
    fn recursion_works() {
        let mut b = ProgramBuilder::new();
        let fact = b.declare("fact", 1, true);
        b.define(fact, |f| {
            f.if_else_icmp(
                Cond::Le,
                |f| {
                    f.ld(f.param(0)).ci(1);
                },
                |f| {
                    f.ci(1);
                },
                |f| {
                    f.ld(f.param(0));
                    f.ld(f.param(0)).ci(1).isub().call(fact);
                    f.imul();
                },
            );
            f.ret();
        });
        let main = b.function("main", 0, true, |f| {
            f.ci(10).call(fact).ret();
        });
        let p = b.finish(main).unwrap();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        assert_eq!(r.ret.unwrap().as_int().unwrap(), 3628800);
    }

    #[test]
    fn cycles_are_the_cost_model_summed_over_retired_instructions() {
        use crate::isa::{Instr, LoopId};
        use crate::trace::Addr;
        use std::cell::Cell;
        use std::rc::Rc;

        /// Charges each instruction as the hook sees it retire, plus the
        /// words its allocation zeroes: an array's before its stores
        /// are stamped, an object's after.
        struct Charge<'a> {
            program: &'a Program,
            cost: CostModel,
            clock: Rc<Cell<u64>>,
            after_stores: u64,
        }
        impl LocationHook for Charge<'_> {
            fn at(&mut self, func: u16, pc: u32) {
                let code = &self.program.functions[func as usize].code;
                let instr = code[pc as usize];
                let per_word = u64::from(self.cost.alloc_per_word);
                let mut clock = self.clock.get() + std::mem::take(&mut self.after_stores);
                clock += u64::from(self.cost.cost(&instr));
                match instr {
                    // the test's arrays have constant lengths
                    Instr::NewArray(_) => match code[pc as usize - 1] {
                        Instr::IConst(n) => clock += per_word * n as u64,
                        other => panic!("array length from {other:?}"),
                    },
                    Instr::NewObject(c) => {
                        let fields = self.program.classes[c.0 as usize].fields.len();
                        self.after_stores = per_word * fields as u64;
                    }
                    _ => {}
                }
                self.clock.set(clock);
            }
        }
        /// Checks every event's stamp against the hook's clock.
        struct Stamps {
            clock: Rc<Cell<u64>>,
            events: u64,
            result_uses: u64,
        }
        impl Stamps {
            fn check(&mut self, now: Cycles) {
                assert_eq!(now, self.clock.get(), "event {}", self.events);
                self.events += 1;
            }
        }
        impl TraceSink for Stamps {
            fn heap_load(&mut self, _: Addr, now: Cycles, _: Pc) {
                self.check(now);
            }
            fn heap_store(&mut self, _: Addr, now: Cycles, _: Pc) {
                self.check(now);
            }
            fn static_store(&mut self, _: u16, _: i64, now: Cycles, _: Pc) {
                self.check(now);
            }
            fn local_load(&mut self, _: u16, _: u32, now: Cycles, _: Pc) {
                self.check(now);
            }
            fn local_store(&mut self, _: u16, _: u32, now: Cycles, _: Pc) {
                self.check(now);
            }
            fn loop_enter(&mut self, _: LoopId, _: u16, _: u32, now: Cycles) {
                self.check(now);
            }
            fn loop_iter(&mut self, _: LoopId, now: Cycles) {
                self.check(now);
            }
            fn loop_exit(&mut self, _: LoopId, now: Cycles) {
                self.check(now);
            }
            fn stats_read(&mut self, _: LoopId, now: Cycles) {
                self.check(now);
            }
            fn call_enter(&mut self, _: Pc, _: u32, now: Cycles) {
                self.check(now);
            }
            fn call_exit(&mut self, _: Pc, now: Cycles) {
                self.check(now);
            }
            fn call_result_use(&mut self, _: Pc, now: Cycles) {
                self.check(now);
                self.result_uses += 1;
            }
        }

        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let cls = b.class(&[ElemKind::Int, ElemKind::Float, ElemKind::Ref]);
        let fact = b.declare("fact", 1, true);
        b.define(fact, |f| {
            f.if_else_icmp(
                Cond::Le,
                |f| {
                    f.ld(f.param(0)).ci(1);
                },
                |f| {
                    f.ci(1);
                },
                |f| {
                    f.ld(f.param(0));
                    f.ld(f.param(0)).ci(1).isub().call(fact);
                    f.imul();
                },
            );
            f.ret();
        });
        let main = b.function("main", 0, true, |f| {
            let (i, a, o, parked) = (f.local(), f.local(), f.local(), f.local());
            f.ci(4).call(fact).st(parked);
            f.raw(Instr::SLoop(LoopId(0), 1));
            f.for_in(i, 0.into(), 6.into(), |f| {
                f.raw(Instr::Lwl(0));
                f.ld(i).call(fact).ci(7).irem();
                f.getstatic(g).iadd().putstatic(g);
                f.ci(5).newarray(ElemKind::Int).st(a);
                f.newobject(cls).st(o);
                f.raw(Instr::Eoi(LoopId(0)));
            });
            f.raw(Instr::ELoop(LoopId(0), 1));
            f.raw(Instr::ReadStats(LoopId(0)));
            f.ld(parked).getstatic(g).iadd().ret();
        });
        let p = b.finish(main).unwrap();
        // every class priced differently from the default and from
        // each other
        let cost = CostModel {
            simple: 3,
            imul: 5,
            idiv: 7,
            fsimple: 11,
            fdiv: 13,
            fmath: 17,
            mem: 19,
            call: 23,
            alloc_base: 29,
            alloc_per_word: 31,
            loop_marker: 37,
            eoi_marker: 41,
            local_annotation: 43,
            read_stats: 47,
        };
        let clock = Rc::new(Cell::new(0));
        let mut hook = Charge {
            program: &p,
            cost,
            clock: Rc::clone(&clock),
            after_stores: 0,
        };
        let mut stamps = Stamps {
            clock: Rc::clone(&clock),
            events: 0,
            result_uses: 0,
        };
        let hooked = Interp::run_to_state_hooked(&p, &mut stamps, cost, 1_000_000, &mut hook)
            .unwrap()
            .result;
        let plain = Interp::run_with(&p, &mut NullSink, cost, 1_000_000).unwrap();
        assert_eq!(plain, hooked);
        assert_eq!(plain.cycles, clock.get());
        assert_ne!(plain.cycles, Interp::run(&p, &mut NullSink).unwrap().cycles);
        // main's parked result and six consumed ones, and `fact`'s 13
        // recursive results its `imul` consumes
        assert_eq!(stamps.result_uses, 20);
        assert!(stamps.events > 100);
    }

    #[test]
    fn annotation_cycles_are_tallied() {
        use crate::isa::{Instr, LoopId};
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            f.raw(Instr::SLoop(LoopId(0), 1));
            f.raw(Instr::Lwl(0));
            f.raw(Instr::Eoi(LoopId(0)));
            f.raw(Instr::ELoop(LoopId(0), 1));
            f.raw(Instr::ReadStats(LoopId(0)));
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let cost = CostModel::default();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        assert_eq!(
            r.annotation_cycles.markers,
            u64::from(2 * cost.loop_marker + cost.eoi_marker)
        );
        assert_eq!(r.annotation_cycles.locals, u64::from(cost.local_annotation));
        assert_eq!(r.annotation_cycles.stats_reads, u64::from(cost.read_stats));
    }
}
