//! Shared codegen helpers for the benchmark kernels.

use tvm::isa::ElemKind;
use tvm::program::FuncId;
use tvm::{FnBuilder, Local, ProgramBuilder};

/// Knuth's 64-bit LCG multiplier.
pub const LCG_A: i64 = 6364136223846793005;
/// Knuth's 64-bit LCG increment.
pub const LCG_C: i64 = 1442695040888963407;

/// Emits `x = x * LCG_A + LCG_C` on local `x`.
pub fn lcg_step(f: &mut FnBuilder, x: Local) {
    f.ld(x).ci(LCG_A).imul().ci(LCG_C).iadd().st(x);
}

/// Emits a mixing hash of the value on top of the stack (a cheap
/// `splitmix`-style finalizer). Used to derive per-iteration seeds
/// from loop counters, which keeps Monte-Carlo-style loops free of a
/// serializing RNG-state dependency.
pub fn hash_top(f: &mut FnBuilder) {
    // v ^= v >> 30; v *= A; v ^= v >> 27
    f.dup().ci(30).iushr().ixor();
    f.ci(LCG_A).imul();
    f.dup().ci(27).iushr().ixor();
}

/// Defines `fill_int(arr, seed, bound)`: fills an int array with
/// pseudo-random values in `[0, bound)`. Returns nothing.
pub fn define_fill_int(b: &mut ProgramBuilder) -> FuncId {
    b.function("fill_int", 3, false, |f| {
        let (arr, seed, bound) = (f.param(0), f.param(1), f.param(2));
        let i = f.local();
        let n = f.local();
        f.ld(arr).arraylen().st(n);
        f.for_in(i, 0.into(), n.into(), |f| {
            f.ld(arr).ld(i);
            lcg_step(f, seed);
            f.ld(seed).ci(33).iushr().ld(bound).irem();
            f.astore();
        });
        f.ret_void();
    })
}

/// Defines `fill_float(arr, seed)`: fills a float array with
/// pseudo-random values in `[0, 1)`.
pub fn define_fill_float(b: &mut ProgramBuilder) -> FuncId {
    b.function("fill_float", 2, false, |f| {
        let (arr, seed) = (f.param(0), f.param(1));
        let i = f.local();
        let n = f.local();
        f.ld(arr).arraylen().st(n);
        f.for_in(i, 0.into(), n.into(), |f| {
            f.ld(arr).ld(i);
            lcg_step(f, seed);
            f.ld(seed).ci(40).iushr().i2f().cf(16777216.0).fdiv();
            f.astore();
        });
        f.ret_void();
    })
}

/// Allocates an int array of length `n` into local `dst`.
pub fn new_int_array(f: &mut FnBuilder, dst: Local, n: i64) {
    f.ci(n).newarray(ElemKind::Int).st(dst);
}

/// Allocates a float array of length `n` into local `dst`.
pub fn new_float_array(f: &mut FnBuilder, dst: Local, n: i64) {
    f.ci(n).newarray(ElemKind::Float).st(dst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::{Interp, NullSink};

    #[test]
    fn fill_int_produces_bounded_values() {
        let mut b = ProgramBuilder::new();
        let fill = define_fill_int(&mut b);
        let main = b.function("main", 0, true, |f| {
            let (a, i, mx) = (f.local(), f.local(), f.local());
            new_int_array(f, a, 64);
            f.ld(a).ci(42).ci(100).call(fill);
            f.ci(0).st(mx);
            f.for_in(i, 0.into(), 64.into(), |f| {
                f.ld(mx)
                    .arr_get(a, |f| {
                        f.ld(i);
                    })
                    .imax()
                    .st(mx);
            });
            f.ld(mx).ret();
        });
        let p = b.finish(main).unwrap();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        let mx = r.ret.unwrap().as_int().unwrap();
        assert!(mx > 0 && mx < 100, "max {mx}");
    }

    #[test]
    fn fill_float_produces_unit_interval() {
        let mut b = ProgramBuilder::new();
        let fill = define_fill_float(&mut b);
        let main = b.function("main", 0, true, |f| {
            let (a, i, mx) = (f.local(), f.local(), f.local());
            new_float_array(f, a, 64);
            f.ld(a).ci(7).call(fill);
            f.cf(0.0).st(mx);
            f.for_in(i, 0.into(), 64.into(), |f| {
                f.ld(mx)
                    .arr_get(a, |f| {
                        f.ld(i);
                    })
                    .fmax()
                    .st(mx);
            });
            f.ld(mx).cf(1000000.0).fmul().f2i().ret();
        });
        let p = b.finish(main).unwrap();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        let scaled = r.ret.unwrap().as_int().unwrap();
        assert!(scaled > 0 && scaled < 1_000_000, "max*1e6 = {scaled}");
    }

    #[test]
    fn hash_top_mixes() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            f.ci(1);
            hash_top(f);
            f.ci(2);
            hash_top(f);
            f.ixor().ret();
        });
        let p = b.finish(main).unwrap();
        let r = Interp::run(&p, &mut NullSink).unwrap();
        assert_ne!(r.ret.unwrap().as_int().unwrap(), 0);
    }
}
