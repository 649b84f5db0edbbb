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

struct Frame {
    func: u16,
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
    /// retired instruction. Hooks are free in simulated time: cycles,
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

        let mut mem = Memory::new(&program.globals);
        let mut stack: Vec<Value> = Vec::with_capacity(64);
        let mut locals: Vec<Value> = vec![Value::Int(0); entry.n_locals as usize];
        let mut frames: Vec<Frame> = Vec::with_capacity(16);
        let mut next_activation: u32 = 1;
        let mut frame = Frame {
            func: program.entry.0,
            pc: 0,
            locals_base: 0,
            stack_base: 0,
            activation: 0,
            call_site: None,
            pending_result: None,
            pending_local: None,
        };

        let mut now: Cycles = 0;
        let mut instructions: u64 = 0;
        let mut ann = AnnotationCycles::default();
        let entry_returns = entry.returns;

        // every instruction's cost, looked up once per run instead of
        // matched on each time it retires
        let costs: Vec<Vec<u32>> = program
            .functions
            .iter()
            .map(|f| f.code.iter().map(|i| cost.cost(i)).collect())
            .collect();
        let mut code: &[Instr] = &entry.code;
        let mut code_costs: &[u32] = &costs[program.entry.0 as usize];

        macro_rules! pop {
            () => {
                stack.pop().ok_or(VmError::StackUnderflow)?
            };
        }
        macro_rules! pop_int {
            () => {
                pop!().as_int()?
            };
        }
        macro_rules! pop_float {
            () => {
                pop!().as_float()?
            };
        }

        loop {
            // a pending return value is "used" once anything shortened
            // the stack past it (store, arithmetic, argument pop, ...)
            if let Some((site, idx)) = frame.pending_result {
                if stack.len() <= idx {
                    sink.call_result_use(site, now);
                    frame.pending_result = None;
                }
            }
            let instr = code
                .get(frame.pc as usize)
                .copied()
                .ok_or(VmError::FellOffEnd(frame.func))?;
            hook.at(frame.func, frame.pc);
            let pc_here = Pc {
                func: FuncId(frame.func),
                idx: frame.pc,
            };
            instructions += 1;
            if instructions > fuel {
                return Err(VmError::FuelExhausted);
            }
            now += u64::from(code_costs[frame.pc as usize]);
            let mut next_pc = frame.pc + 1;

            match instr {
                Instr::IConst(v) => stack.push(Value::Int(v)),
                Instr::FConst(v) => stack.push(Value::Float(v)),
                Instr::NullConst => stack.push(Value::Null),
                Instr::Load(l) => {
                    if let Some((site, pl)) = frame.pending_local {
                        if pl == l.0 {
                            sink.call_result_use(site, now);
                            frame.pending_local = None;
                        }
                    }
                    let slot = frame.locals_base + l.0 as usize;
                    stack.push(*locals.get(slot).ok_or(VmError::BadLocal(l.0))?);
                }
                Instr::Store(l) => {
                    // a return value moved straight into a local is
                    // merely parked; its first Load is the real use.
                    // Overwriting a parked local before any read means
                    // the value was dead: drop the tracking silently.
                    match frame.pending_result {
                        Some((site, idx)) if idx + 1 == stack.len() => {
                            frame.pending_result = None;
                            frame.pending_local = Some((site, l.0));
                        }
                        _ => {
                            if matches!(frame.pending_local, Some((_, pl)) if pl == l.0) {
                                frame.pending_local = None;
                            }
                        }
                    }
                    let v = pop!();
                    let slot = frame.locals_base + l.0 as usize;
                    *locals.get_mut(slot).ok_or(VmError::BadLocal(l.0))? = v;
                }
                Instr::IInc(l, by) => {
                    if let Some((site, pl)) = frame.pending_local {
                        if pl == l.0 {
                            sink.call_result_use(site, now);
                            frame.pending_local = None;
                        }
                    }
                    let idx = frame.locals_base + l.0 as usize;
                    let slot = locals.get_mut(idx).ok_or(VmError::BadLocal(l.0))?;
                    *slot = Value::Int(slot.as_int()?.wrapping_add(i64::from(by)));
                }
                Instr::Dup => {
                    let v = *stack.last().ok_or(VmError::StackUnderflow)?;
                    stack.push(v);
                }
                Instr::Pop => {
                    pop!();
                }
                Instr::Swap => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(b);
                    stack.push(a);
                }

                Instr::IAdd => bin_int(&mut stack, |a, b| Ok(a.wrapping_add(b)))?,
                Instr::ISub => bin_int(&mut stack, |a, b| Ok(a.wrapping_sub(b)))?,
                Instr::IMul => bin_int(&mut stack, |a, b| Ok(a.wrapping_mul(b)))?,
                Instr::IDiv => bin_int(&mut stack, |a, b| {
                    if b == 0 {
                        Err(VmError::DivisionByZero)
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                })?,
                Instr::IRem => bin_int(&mut stack, |a, b| {
                    if b == 0 {
                        Err(VmError::DivisionByZero)
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                })?,
                Instr::INeg => {
                    let a = pop_int!();
                    stack.push(Value::Int(a.wrapping_neg()));
                }
                Instr::IAnd => bin_int(&mut stack, |a, b| Ok(a & b))?,
                Instr::IOr => bin_int(&mut stack, |a, b| Ok(a | b))?,
                Instr::IXor => bin_int(&mut stack, |a, b| Ok(a ^ b))?,
                Instr::IShl => bin_int(&mut stack, |a, b| Ok(a.wrapping_shl(b as u32 & 63)))?,
                Instr::IShr => bin_int(&mut stack, |a, b| Ok(a.wrapping_shr(b as u32 & 63)))?,
                Instr::IUShr => {
                    bin_int(
                        &mut stack,
                        |a, b| Ok(((a as u64) >> (b as u32 & 63)) as i64),
                    )?
                }
                Instr::IMin => bin_int(&mut stack, |a, b| Ok(a.min(b)))?,
                Instr::IMax => bin_int(&mut stack, |a, b| Ok(a.max(b)))?,
                Instr::ICmp => bin_int(&mut stack, |a, b| Ok(i64::from(a.cmp(&b) as i8)))?,

                Instr::FAdd => bin_float(&mut stack, |a, b| a + b)?,
                Instr::FSub => bin_float(&mut stack, |a, b| a - b)?,
                Instr::FMul => bin_float(&mut stack, |a, b| a * b)?,
                Instr::FDiv => bin_float(&mut stack, |a, b| a / b)?,
                Instr::FMin => bin_float(&mut stack, f64::min)?,
                Instr::FMax => bin_float(&mut stack, f64::max)?,
                Instr::FNeg => un_float(&mut stack, |a| -a)?,
                Instr::FAbs => un_float(&mut stack, f64::abs)?,
                Instr::FSqrt => un_float(&mut stack, f64::sqrt)?,
                Instr::FSin => un_float(&mut stack, f64::sin)?,
                Instr::FCos => un_float(&mut stack, f64::cos)?,
                Instr::FExp => un_float(&mut stack, f64::exp)?,
                Instr::FLog => un_float(&mut stack, f64::ln)?,
                Instr::I2F => {
                    let a = pop_int!();
                    stack.push(Value::Float(a as f64));
                }
                Instr::F2I => {
                    let a = pop_float!();
                    stack.push(Value::Int(a as i64));
                }

                Instr::Goto(t) => next_pc = t,
                Instr::AGoto(t) => {
                    ann.plumbing += u64::from(cost.simple);
                    next_pc = t;
                }
                Instr::If(c, t) => {
                    let a = pop_int!();
                    if c.eval_int(a, 0) {
                        next_pc = t;
                    }
                }
                Instr::IfICmp(c, t) => {
                    let b = pop_int!();
                    let a = pop_int!();
                    if c.eval_int(a, b) {
                        next_pc = t;
                    }
                }
                Instr::IfFCmp(c, t) => {
                    let b = pop_float!();
                    let a = pop_float!();
                    if c.eval_float(a, b) {
                        next_pc = t;
                    }
                }

                Instr::NewArray(kind) => {
                    let len = pop_int!();
                    if len < 0 || len > i64::from(u32::MAX / WORD_BYTES) - 2 {
                        return Err(VmError::BadArrayLength(len));
                    }
                    let n = len as u32;
                    let base = mem.alloc(n + 1, kind)?;
                    mem.write(base, Value::Int(len))?;
                    now += u64::from(cost.alloc_per_word) * u64::from(n);
                    // zero-initialization produces speculative store state
                    sink.heap_store(base, now, pc_here);
                    for w in 0..n {
                        sink.heap_store(base + (w + 1) * WORD_BYTES, now, pc_here);
                    }
                    stack.push(Value::Ref(base));
                }
                Instr::ALoad => {
                    let idx = pop_int!();
                    let base = pop!().as_ref_addr()?;
                    let addr = array_elem_addr(&mem, base, idx)?;
                    let v = mem.read(addr)?;
                    sink.heap_load(addr, now, pc_here);
                    stack.push(v);
                }
                Instr::AStore => {
                    let v = pop!();
                    let idx = pop_int!();
                    let base = pop!().as_ref_addr()?;
                    let addr = array_elem_addr(&mem, base, idx)?;
                    mem.write(addr, v)?;
                    sink.heap_store(addr, now, pc_here);
                }
                Instr::ArrayLen => {
                    let base = pop!().as_ref_addr()?;
                    let len = mem.read(base)?.as_int()?;
                    stack.push(Value::Int(len));
                }
                Instr::NewObject(cid) => {
                    let class = program.class(cid)?;
                    let n = class.fields.len() as u32;
                    // header word records the field count for bounds checks
                    let base = mem.alloc(n + 1, ElemKind::Int)?;
                    mem.write(base, Value::Int(i64::from(n)))?;
                    for (i, &kind) in class.fields.iter().enumerate() {
                        let addr = base + (i as u32 + 1) * WORD_BYTES;
                        let zero = match kind {
                            ElemKind::Int => Value::Int(0),
                            ElemKind::Float => Value::Float(0.0),
                            ElemKind::Ref => Value::Null,
                        };
                        mem.write(addr, zero)?;
                        sink.heap_store(addr, now, pc_here);
                    }
                    now += u64::from(cost.alloc_per_word) * u64::from(n);
                    stack.push(Value::Ref(base));
                }
                Instr::GetField(idx) => {
                    let base = pop!().as_ref_addr()?;
                    let addr = field_addr(&mem, base, idx)?;
                    let v = mem.read(addr)?;
                    sink.heap_load(addr, now, pc_here);
                    stack.push(v);
                }
                Instr::PutField(idx) => {
                    let v = pop!();
                    let base = pop!().as_ref_addr()?;
                    let addr = field_addr(&mem, base, idx)?;
                    mem.write(addr, v)?;
                    sink.heap_store(addr, now, pc_here);
                }
                Instr::GetStatic(g) => {
                    let addr = mem.global_addr(g.0);
                    let v = mem.read(addr)?;
                    sink.heap_load(addr, now, pc_here);
                    stack.push(v);
                }
                Instr::PutStatic(g) => {
                    let v = pop!();
                    let addr = mem.global_addr(g.0);
                    if let Value::Int(i) = v {
                        sink.static_store(g.0, i, now, pc_here);
                    }
                    mem.write(addr, v)?;
                    sink.heap_store(addr, now, pc_here);
                }

                Instr::Call(fid) => {
                    let callee = program.function(fid)?;
                    let n_args = callee.n_params as usize;
                    if stack.len() < frame.stack_base + n_args {
                        return Err(VmError::StackUnderflow);
                    }
                    let args_start = stack.len() - n_args;
                    let locals_base = locals.len();
                    locals.extend_from_slice(&stack[args_start..]);
                    locals.resize(locals_base + callee.n_locals as usize, Value::Int(0));
                    stack.truncate(args_start);
                    frame.pc = next_pc;
                    frames.push(frame);
                    sink.call_enter(pc_here, next_activation, now);
                    frame = Frame {
                        func: fid.0,
                        pc: 0,
                        locals_base,
                        stack_base: stack.len(),
                        activation: next_activation,
                        call_site: Some(pc_here),
                        pending_result: None,
                        pending_local: None,
                    };
                    next_activation += 1;
                    code = &callee.code;
                    code_costs = &costs[fid.0 as usize];
                    continue;
                }
                Instr::Return | Instr::ReturnVoid => {
                    let returns = matches!(instr, Instr::Return);
                    let ret_val = if returns { Some(pop!()) } else { None };
                    stack.truncate(frame.stack_base);
                    locals.truncate(frame.locals_base);
                    let ret_site = frame.call_site;
                    if let Some(site) = frame.call_site {
                        sink.call_exit(site, now);
                    }
                    match frames.pop() {
                        Some(caller) => {
                            frame = caller;
                            code = &program.function(FuncId(frame.func))?.code;
                            code_costs = &costs[frame.func as usize];
                            if let Some(v) = ret_val {
                                stack.push(v);
                                if let Some(site) = ret_site {
                                    frame.pending_result = Some((site, stack.len() - 1));
                                }
                            }
                            continue;
                        }
                        None => {
                            // entry function returned
                            let ret = if entry_returns { ret_val } else { None };
                            return Ok(FinalState {
                                result: RunResult {
                                    cycles: now,
                                    instructions,
                                    ret,
                                    annotation_cycles: ann,
                                },
                                memory: mem,
                            });
                        }
                    }
                }
                Instr::Halt => {
                    return Ok(FinalState {
                        result: RunResult {
                            cycles: now,
                            instructions,
                            ret: None,
                            annotation_cycles: ann,
                        },
                        memory: mem,
                    });
                }

                Instr::SLoop(id, n) => {
                    ann.markers += u64::from(cost.loop_marker);
                    sink.loop_enter(id, n, frame.activation, now);
                }
                Instr::Eoi(id) => {
                    ann.markers += u64::from(cost.eoi_marker);
                    sink.loop_iter(id, now);
                }
                Instr::ELoop(id, _n) => {
                    ann.markers += u64::from(cost.loop_marker);
                    sink.loop_exit(id, now);
                }
                Instr::Lwl(v) => {
                    ann.locals += u64::from(cost.local_annotation);
                    sink.local_load(v, frame.activation, now, pc_here);
                }
                Instr::Swl(v) => {
                    ann.locals += u64::from(cost.local_annotation);
                    sink.local_store(v, frame.activation, now, pc_here);
                }
                Instr::ReadStats(id) => {
                    ann.stats_reads += u64::from(cost.read_stats);
                    sink.stats_read(id, now);
                }
            }

            frame.pc = next_pc;
        }
    }
}

#[inline]
fn bin_int(
    stack: &mut Vec<Value>,
    f: impl FnOnce(i64, i64) -> Result<i64, VmError>,
) -> Result<(), VmError> {
    let b = stack.pop().ok_or(VmError::StackUnderflow)?.as_int()?;
    let a = stack.pop().ok_or(VmError::StackUnderflow)?.as_int()?;
    stack.push(Value::Int(f(a, b)?));
    Ok(())
}

#[inline]
fn bin_float(stack: &mut Vec<Value>, f: impl FnOnce(f64, f64) -> f64) -> Result<(), VmError> {
    let b = stack.pop().ok_or(VmError::StackUnderflow)?.as_float()?;
    let a = stack.pop().ok_or(VmError::StackUnderflow)?.as_float()?;
    stack.push(Value::Float(f(a, b)));
    Ok(())
}

#[inline]
fn un_float(stack: &mut Vec<Value>, f: impl FnOnce(f64) -> f64) -> Result<(), VmError> {
    let a = stack.pop().ok_or(VmError::StackUnderflow)?.as_float()?;
    stack.push(Value::Float(f(a)));
    Ok(())
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

        /// Charges each instruction as the hook sees it retire.
        struct Charge<'a> {
            program: &'a Program,
            cost: CostModel,
            cycles: u64,
        }
        impl LocationHook for Charge<'_> {
            fn at(&mut self, func: u16, pc: u32) {
                let instr = &self.program.functions[func as usize].code[pc as usize];
                self.cycles += u64::from(self.cost.cost(instr));
            }
        }

        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
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
            let i = f.local();
            f.raw(Instr::SLoop(LoopId(0), 1));
            f.for_in(i, 0.into(), 6.into(), |f| {
                f.raw(Instr::Lwl(0));
                f.ld(i).call(fact).ci(7).irem();
                f.getstatic(g).iadd().putstatic(g);
                f.raw(Instr::Eoi(LoopId(0)));
            });
            f.raw(Instr::ELoop(LoopId(0), 1));
            f.raw(Instr::ReadStats(LoopId(0)));
            f.getstatic(g).ret();
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
        let mut hook = Charge {
            program: &p,
            cost,
            cycles: 0,
        };
        let hooked = Interp::run_to_state_hooked(&p, &mut NullSink, cost, 1_000_000, &mut hook)
            .unwrap()
            .result;
        let plain = Interp::run_with(&p, &mut NullSink, cost, 1_000_000).unwrap();
        assert_eq!(plain, hooked);
        assert_eq!(plain.cycles, hook.cycles);
        assert_ne!(plain.cycles, Interp::run(&p, &mut NullSink).unwrap().cycles);
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
