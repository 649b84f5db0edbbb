//! Program and function builders.
//!
//! [`ProgramBuilder`] plays the role of the compiler frontend: the
//! benchmark suite writes its 26 kernels against this API, producing the
//! bytecode that the candidate-extraction and annotation passes then
//! analyze. The builder resolves labels and runs the bytecode verifier
//! on [`ProgramBuilder::finish`].
//!
//! Structured helpers (`for_in`, `while_icmp`, `if_else_icmp`, …) emit
//! plain branches — loops are *discovered* from the CFG by `cfgir`, not
//! declared here, exactly as Jrpm discovers natural loops in compiled
//! Java methods.

use crate::error::VmError;
use crate::isa::{ClassId, Cond, ElemKind, FuncId, GlobalId, Instr, Label, Local};
use crate::program::{ClassDef, Function, Program};
use crate::verify;

/// An operand for structured helpers: either an integer constant or a
/// local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Immediate integer.
    ConstI(i64),
    /// Local slot.
    Loc(Local),
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::ConstI(v)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::ConstI(i64::from(v))
    }
}

impl From<Local> for Operand {
    fn from(l: Local) -> Self {
        Operand::Loc(l)
    }
}

/// Builds one function body. Obtained from
/// [`ProgramBuilder::function`] / [`ProgramBuilder::define`].
#[derive(Debug)]
pub struct FnBuilder {
    code: Vec<Instr>,
    n_params: u16,
    n_locals: u16,
    returns: bool,
    labels: Vec<Option<u32>>,
    /// instruction indices whose branch target is still a label id
    fixups: Vec<u32>,
}

impl FnBuilder {
    fn new(n_params: u16, returns: bool) -> FnBuilder {
        FnBuilder {
            code: Vec::new(),
            n_params,
            n_locals: n_params,
            returns,
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Allocates a fresh local slot.
    pub fn local(&mut self) -> Local {
        let l = Local(self.n_locals);
        self.n_locals += 1;
        l
    }

    /// The `i`-th parameter's slot.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_params`.
    pub fn param(&self, i: u16) -> Local {
        assert!(i < self.n_params, "parameter index out of range");
        Local(i)
    }

    /// Emits a raw instruction.
    pub fn raw(&mut self, i: Instr) -> &mut Self {
        self.code.push(i);
        self
    }

    // ---- labels & branches ----

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.code.len() as u32);
        self
    }

    fn emit_branch(&mut self, i: Instr) -> &mut Self {
        self.fixups.push(self.code.len() as u32);
        self.code.push(i);
        self
    }

    /// Emits an unconditional branch to `label`.
    pub fn goto(&mut self, label: Label) -> &mut Self {
        self.emit_branch(Instr::Goto(label.0))
    }

    /// Pops b then a (ints); branches if `a cond b`.
    pub fn br_icmp(&mut self, cond: Cond, label: Label) -> &mut Self {
        self.emit_branch(Instr::IfICmp(cond, label.0))
    }

    /// Pops b then a (floats); branches if `a cond b`.
    pub fn br_fcmp(&mut self, cond: Cond, label: Label) -> &mut Self {
        self.emit_branch(Instr::IfFCmp(cond, label.0))
    }

    // ---- constants, locals, stack ----

    /// Pushes an integer constant.
    pub fn ci(&mut self, v: i64) -> &mut Self {
        self.raw(Instr::IConst(v))
    }

    /// Pushes a float constant.
    pub fn cf(&mut self, v: f64) -> &mut Self {
        self.raw(Instr::FConst(v))
    }

    /// Pushes `null`.
    pub fn cnull(&mut self) -> &mut Self {
        self.raw(Instr::NullConst)
    }

    /// Pushes a local.
    pub fn ld(&mut self, l: Local) -> &mut Self {
        self.raw(Instr::Load(l))
    }

    /// Pops into a local.
    pub fn st(&mut self, l: Local) -> &mut Self {
        self.raw(Instr::Store(l))
    }

    /// Adds a constant to an integer local in place.
    pub fn inc(&mut self, l: Local, by: i32) -> &mut Self {
        self.raw(Instr::IInc(l, by))
    }

    /// Pushes an operand (constant or local).
    pub fn operand(&mut self, op: Operand) -> &mut Self {
        match op {
            Operand::ConstI(v) => self.ci(v),
            Operand::Loc(l) => self.ld(l),
        }
    }

    /// Duplicates the top of stack.
    pub fn dup(&mut self) -> &mut Self {
        self.raw(Instr::Dup)
    }

    /// Pops and discards the top of stack.
    pub fn drop_top(&mut self) -> &mut Self {
        self.raw(Instr::Pop)
    }

    /// Swaps the two top stack values.
    pub fn swap(&mut self) -> &mut Self {
        self.raw(Instr::Swap)
    }

    // ---- arithmetic ----

    /// Integer add.
    pub fn iadd(&mut self) -> &mut Self {
        self.raw(Instr::IAdd)
    }
    /// Integer subtract.
    pub fn isub(&mut self) -> &mut Self {
        self.raw(Instr::ISub)
    }
    /// Integer multiply.
    pub fn imul(&mut self) -> &mut Self {
        self.raw(Instr::IMul)
    }
    /// Integer divide.
    pub fn idiv(&mut self) -> &mut Self {
        self.raw(Instr::IDiv)
    }
    /// Integer remainder.
    pub fn irem(&mut self) -> &mut Self {
        self.raw(Instr::IRem)
    }
    /// Integer negate.
    pub fn ineg(&mut self) -> &mut Self {
        self.raw(Instr::INeg)
    }
    /// Bitwise and.
    pub fn iand(&mut self) -> &mut Self {
        self.raw(Instr::IAnd)
    }
    /// Bitwise or.
    pub fn ior(&mut self) -> &mut Self {
        self.raw(Instr::IOr)
    }
    /// Bitwise xor.
    pub fn ixor(&mut self) -> &mut Self {
        self.raw(Instr::IXor)
    }
    /// Shift left.
    pub fn ishl(&mut self) -> &mut Self {
        self.raw(Instr::IShl)
    }
    /// Arithmetic shift right.
    pub fn ishr(&mut self) -> &mut Self {
        self.raw(Instr::IShr)
    }
    /// Logical shift right.
    pub fn iushr(&mut self) -> &mut Self {
        self.raw(Instr::IUShr)
    }
    /// Integer minimum.
    pub fn imin(&mut self) -> &mut Self {
        self.raw(Instr::IMin)
    }
    /// Integer maximum.
    pub fn imax(&mut self) -> &mut Self {
        self.raw(Instr::IMax)
    }
    /// Three-way integer compare.
    pub fn icmp3(&mut self) -> &mut Self {
        self.raw(Instr::ICmp)
    }
    /// Float add.
    pub fn fadd(&mut self) -> &mut Self {
        self.raw(Instr::FAdd)
    }
    /// Float subtract.
    pub fn fsub(&mut self) -> &mut Self {
        self.raw(Instr::FSub)
    }
    /// Float multiply.
    pub fn fmul(&mut self) -> &mut Self {
        self.raw(Instr::FMul)
    }
    /// Float divide.
    pub fn fdiv(&mut self) -> &mut Self {
        self.raw(Instr::FDiv)
    }
    /// Float negate.
    pub fn fneg(&mut self) -> &mut Self {
        self.raw(Instr::FNeg)
    }
    /// Float minimum.
    pub fn fmin(&mut self) -> &mut Self {
        self.raw(Instr::FMin)
    }
    /// Float maximum.
    pub fn fmax(&mut self) -> &mut Self {
        self.raw(Instr::FMax)
    }
    /// Float absolute value.
    pub fn fabs(&mut self) -> &mut Self {
        self.raw(Instr::FAbs)
    }
    /// Square root.
    pub fn fsqrt(&mut self) -> &mut Self {
        self.raw(Instr::FSqrt)
    }
    /// Sine.
    pub fn fsin(&mut self) -> &mut Self {
        self.raw(Instr::FSin)
    }
    /// Cosine.
    pub fn fcos(&mut self) -> &mut Self {
        self.raw(Instr::FCos)
    }
    /// Exponential.
    pub fn fexp(&mut self) -> &mut Self {
        self.raw(Instr::FExp)
    }
    /// Natural log.
    pub fn flog(&mut self) -> &mut Self {
        self.raw(Instr::FLog)
    }
    /// Int to float.
    pub fn i2f(&mut self) -> &mut Self {
        self.raw(Instr::I2F)
    }
    /// Float to int (truncating).
    pub fn f2i(&mut self) -> &mut Self {
        self.raw(Instr::F2I)
    }

    // ---- heap ----

    /// Pops a length; allocates an array; pushes the reference.
    pub fn newarray(&mut self, kind: ElemKind) -> &mut Self {
        self.raw(Instr::NewArray(kind))
    }
    /// Pops index, array; pushes the element.
    pub fn aload(&mut self) -> &mut Self {
        self.raw(Instr::ALoad)
    }
    /// Pops value, index, array; stores the element.
    pub fn astore(&mut self) -> &mut Self {
        self.raw(Instr::AStore)
    }
    /// Pops an array; pushes its length.
    pub fn arraylen(&mut self) -> &mut Self {
        self.raw(Instr::ArrayLen)
    }
    /// Allocates an object; pushes the reference.
    pub fn newobject(&mut self, class: ClassId) -> &mut Self {
        self.raw(Instr::NewObject(class))
    }
    /// Pops an object ref; pushes field `idx`.
    pub fn getfield(&mut self, idx: u16) -> &mut Self {
        self.raw(Instr::GetField(idx))
    }
    /// Pops value, object ref; stores field `idx`.
    pub fn putfield(&mut self, idx: u16) -> &mut Self {
        self.raw(Instr::PutField(idx))
    }
    /// Pushes a static variable.
    pub fn getstatic(&mut self, g: GlobalId) -> &mut Self {
        self.raw(Instr::GetStatic(g))
    }
    /// Pops into a static variable.
    pub fn putstatic(&mut self, g: GlobalId) -> &mut Self {
        self.raw(Instr::PutStatic(g))
    }

    /// `array[idx]` with the index pushed by a closure:
    /// `f.arr_get(a, |f| { f.ld(i); })`.
    pub fn arr_get(&mut self, arr: Local, idx: impl FnOnce(&mut Self)) -> &mut Self {
        self.ld(arr);
        idx(self);
        self.aload()
    }

    /// `array[idx] = value` with index and value pushed by closures.
    pub fn arr_set(
        &mut self,
        arr: Local,
        idx: impl FnOnce(&mut Self),
        value: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.ld(arr);
        idx(self);
        value(self);
        self.astore()
    }

    // ---- calls & returns ----

    /// Calls a function (arguments already pushed, last on top).
    pub fn call(&mut self, f: FuncId) -> &mut Self {
        self.raw(Instr::Call(f))
    }
    /// Returns the top of stack.
    pub fn ret(&mut self) -> &mut Self {
        self.raw(Instr::Return)
    }
    /// Returns from a void function.
    pub fn ret_void(&mut self) -> &mut Self {
        self.raw(Instr::ReturnVoid)
    }
    /// Halts the program.
    pub fn halt(&mut self) -> &mut Self {
        self.raw(Instr::Halt)
    }

    // ---- structured control flow ----

    /// `for i in from..to { body }` with step 1. `i` must be a local the
    /// caller allocated; the loop uses `IInc`, making `i` a recognizable
    /// inductor.
    pub fn for_in(
        &mut self,
        i: Local,
        from: Operand,
        to: Operand,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.for_step(i, from, to, 1, body)
    }

    /// `for i in (from..to).step_by(step) { body }`. Positive steps use
    /// an `i < to` guard, negative steps `i > to`.
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    pub fn for_step(
        &mut self,
        i: Local,
        from: Operand,
        to: Operand,
        step: i32,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        assert!(step != 0, "for_step requires a nonzero step");
        let head = self.new_label();
        let exit = self.new_label();
        self.operand(from).st(i);
        self.bind(head);
        self.ld(i).operand(to);
        let exit_cond = if step > 0 { Cond::Ge } else { Cond::Le };
        self.br_icmp(exit_cond, exit);
        body(self);
        self.inc(i, step);
        self.goto(head);
        self.bind(exit);
        self
    }

    /// `while a cond b { body }` where `operands` pushes a then b
    /// (ints).
    pub fn while_icmp(
        &mut self,
        cond: Cond,
        operands: impl FnOnce(&mut Self),
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let head = self.new_label();
        let exit = self.new_label();
        self.bind(head);
        operands(self);
        self.br_icmp(cond.negate(), exit);
        body(self);
        self.goto(head);
        self.bind(exit);
        self
    }

    /// `do { body } while a cond b` (ints). The body always runs at
    /// least once; the back edge is the conditional branch itself.
    pub fn do_while_icmp(
        &mut self,
        body: impl FnOnce(&mut Self),
        operands: impl FnOnce(&mut Self),
        cond: Cond,
    ) -> &mut Self {
        let head = self.new_label();
        self.bind(head);
        body(self);
        operands(self);
        self.br_icmp(cond, head);
        self
    }

    /// `if a cond b { then_b }` (ints).
    pub fn if_icmp(
        &mut self,
        cond: Cond,
        operands: impl FnOnce(&mut Self),
        then_b: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let skip = self.new_label();
        operands(self);
        self.br_icmp(cond.negate(), skip);
        then_b(self);
        self.bind(skip);
        self
    }

    /// `if a cond b { then_b } else { else_b }` (ints).
    pub fn if_else_icmp(
        &mut self,
        cond: Cond,
        operands: impl FnOnce(&mut Self),
        then_b: impl FnOnce(&mut Self),
        else_b: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let else_l = self.new_label();
        let end = self.new_label();
        operands(self);
        self.br_icmp(cond.negate(), else_l);
        then_b(self);
        self.goto(end);
        self.bind(else_l);
        else_b(self);
        self.bind(end);
        self
    }

    /// `if a cond b { then_b }` (floats). Branches on the *positive*
    /// condition so IEEE NaN semantics hold: any comparison with NaN
    /// (except `Ne`) is false and skips the body.
    pub fn if_fcmp(
        &mut self,
        cond: Cond,
        operands: impl FnOnce(&mut Self),
        then_b: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let taken = self.new_label();
        let skip = self.new_label();
        operands(self);
        self.br_fcmp(cond, taken);
        self.goto(skip);
        self.bind(taken);
        then_b(self);
        self.bind(skip);
        self
    }

    /// `if a cond b { then_b } else { else_b }` (floats). As with
    /// [`FnBuilder::if_fcmp`], NaN operands take the else branch.
    pub fn if_else_fcmp(
        &mut self,
        cond: Cond,
        operands: impl FnOnce(&mut Self),
        then_b: impl FnOnce(&mut Self),
        else_b: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let taken = self.new_label();
        let end = self.new_label();
        operands(self);
        self.br_fcmp(cond, taken);
        else_b(self);
        self.goto(end);
        self.bind(taken);
        then_b(self);
        self.bind(end);
        self
    }

    fn finish(mut self, name: String) -> Result<Function, VmError> {
        // resolve label-encoded branch targets
        for &at in &self.fixups {
            let instr = self.code[at as usize];
            let lbl = instr
                .branch_target()
                .expect("fixup list contains only branches");
            let target = self.labels[lbl as usize].ok_or(VmError::UnboundLabel(lbl))?;
            self.code[at as usize] = instr.map_target(|_| target);
        }
        Ok(Function {
            name,
            n_params: self.n_params,
            n_locals: self.n_locals,
            returns: self.returns,
            code: self.code,
        })
    }
}

/// Incrementally builds a [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    functions: Vec<Option<Function>>,
    names: Vec<String>,
    signatures: Vec<(u16, bool)>,
    classes: Vec<ClassDef>,
    globals: Vec<ElemKind>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Registers a static variable and returns its id.
    pub fn global(&mut self, kind: ElemKind) -> GlobalId {
        self.globals.push(kind);
        GlobalId(self.globals.len() as u16 - 1)
    }

    /// Registers a class layout and returns its id.
    pub fn class(&mut self, fields: &[ElemKind]) -> ClassId {
        self.classes.push(ClassDef {
            fields: fields.to_vec(),
        });
        ClassId(self.classes.len() as u16 - 1)
    }

    /// Forward-declares a function so mutually recursive code can call
    /// it before it is defined.
    pub fn declare(&mut self, name: &str, n_params: u16, returns: bool) -> FuncId {
        self.functions.push(None);
        self.names.push(name.to_string());
        self.signatures.push((n_params, returns));
        FuncId(self.functions.len() as u16 - 1)
    }

    /// Defines the body of a previously declared function.
    ///
    /// # Panics
    ///
    /// Panics if the function was already defined.
    pub fn define(&mut self, id: FuncId, build: impl FnOnce(&mut FnBuilder)) {
        let (n_params, returns) = self.signatures[id.0 as usize];
        let mut fb = FnBuilder::new(n_params, returns);
        build(&mut fb);
        let f = fb
            .finish(self.names[id.0 as usize].clone())
            .expect("builder used an unbound label");
        let slot = &mut self.functions[id.0 as usize];
        assert!(slot.is_none(), "function defined twice");
        *slot = Some(f);
    }

    /// Declares and defines a function in one step.
    pub fn function(
        &mut self,
        name: &str,
        n_params: u16,
        returns: bool,
        build: impl FnOnce(&mut FnBuilder),
    ) -> FuncId {
        let id = self.declare(name, n_params, returns);
        self.define(id, build);
        id
    }

    /// Finishes the program with `entry` as the start function, running
    /// the bytecode verifier.
    ///
    /// # Errors
    ///
    /// Verification failures ([`VmError::Verify`] and friends) or a
    /// declared-but-undefined function.
    ///
    /// # Panics
    ///
    /// Panics if a declared function was never defined.
    pub fn finish(self, entry: FuncId) -> Result<Program, VmError> {
        let functions: Vec<Function> = self
            .functions
            .into_iter()
            .enumerate()
            .map(|(i, f)| f.unwrap_or_else(|| panic!("function {} declared but not defined", i)))
            .collect();
        let program = Program {
            functions,
            classes: self.classes,
            globals: self.globals,
            entry,
        };
        verify::verify(&program)?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::trace::NullSink;

    #[test]
    fn for_loop_sums() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            let s = f.local();
            let i = f.local();
            f.ci(0).st(s);
            f.for_in(i, 0.into(), 5.into(), |f| {
                f.ld(s).ld(i).iadd().st(s);
            });
            f.ld(s).ret();
        });
        let p = b.finish(main).unwrap();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        assert_eq!(r.ret.unwrap().as_int().unwrap(), 10);
    }

    #[test]
    fn nested_if_else() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            let x = f.local();
            f.ci(7).st(x);
            f.if_else_icmp(
                Cond::Gt,
                |f| {
                    f.ld(x).ci(5);
                },
                |f| {
                    f.ci(1);
                },
                |f| {
                    f.ci(0);
                },
            );
            f.ret();
        });
        let p = b.finish(main).unwrap();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        assert_eq!(r.ret.unwrap().as_int().unwrap(), 1);
    }

    #[test]
    fn do_while_runs_once() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            let n = f.local();
            f.ci(0).st(n);
            f.do_while_icmp(
                |f| {
                    f.inc(n, 1);
                },
                |f| {
                    f.ld(n).ci(0);
                },
                Cond::Lt,
            );
            f.ld(n).ret();
        });
        let p = b.finish(main).unwrap();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        assert_eq!(r.ret.unwrap().as_int().unwrap(), 1);
    }

    #[test]
    fn calls_and_params() {
        let mut b = ProgramBuilder::new();
        let sq = b.function("square", 1, true, |f| {
            let x = f.param(0);
            f.ld(x).ld(x).imul().ret();
        });
        let main = b.function("main", 0, true, |f| {
            f.ci(6).call(sq).ret();
        });
        let p = b.finish(main).unwrap();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        assert_eq!(r.ret.unwrap().as_int().unwrap(), 36);
    }

    #[test]
    fn unbound_label_panics_on_define() {
        let mut b = ProgramBuilder::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.function("bad", 0, false, |f| {
                let l = f.new_label();
                f.goto(l);
                f.ret_void();
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn arrays_roundtrip() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            let a = f.local();
            let i = f.local();
            f.ci(8).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i).ld(i).imul();
                    },
                );
            });
            f.arr_get(a, |f| {
                f.ci(5);
            })
            .ret();
        });
        let p = b.finish(main).unwrap();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        assert_eq!(r.ret.unwrap().as_int().unwrap(), 25);
    }
}
