//! Byte-addressed heap with word-sized cells.
//!
//! The analyses in this workspace are address-driven: the overflow
//! analysis works at 32-byte cache-line granularity and the dependency
//! analysis at word granularity, exactly as the hardware would see them.
//! The heap is therefore a flat 32-bit byte address space. Statics
//! occupy a segment at the bottom (they are heap data in Java);
//! allocations are bump-allocated and line-aligned so that distinct
//! objects do not false-share analysis lines.

use crate::error::VmError;
use crate::isa::ElemKind;
use crate::trace::Addr;
use crate::value::Value;
use crate::{LINE_BYTES, WORD_BYTES};

/// Address of the first allocatable byte: address 0 is reserved so that
/// a `Ref(0)` can never be confused with `Null` data written by zeroing.
const HEAP_BASE: Addr = LINE_BYTES;

/// The flat program memory: statics segment plus bump-allocated heap.
#[derive(Debug, Clone)]
pub struct Memory {
    words: Vec<Value>,
    globals_base: Addr,
    limit_words: usize,
}

impl Memory {
    /// Default heap limit: 64 Mwords (512 MB modelled), far above any
    /// benchmark's needs but a guard against runaway allocation.
    pub const DEFAULT_LIMIT_WORDS: usize = 64 << 20;

    /// Creates a memory with a statics segment holding `globals`
    /// variables, zero-initialized by kind.
    pub fn new(globals: &[ElemKind]) -> Memory {
        let mut mem = Memory {
            words: Vec::with_capacity(1024),
            globals_base: 0,
            limit_words: Self::DEFAULT_LIMIT_WORDS,
        };
        // reserve the null line
        mem.words
            .resize((HEAP_BASE / WORD_BYTES) as usize, Value::Int(0));
        mem.globals_base = HEAP_BASE;
        for &kind in globals {
            mem.words.push(zero_of(kind));
        }
        mem.align_to_line();
        mem
    }

    /// Byte address of static variable `idx`.
    #[inline]
    pub fn global_addr(&self, idx: u16) -> Addr {
        self.globals_base + u32::from(idx) * WORD_BYTES
    }

    fn align_to_line(&mut self) {
        let words_per_line = (LINE_BYTES / WORD_BYTES) as usize;
        let rem = self.words.len() % words_per_line;
        if rem != 0 {
            self.words
                .resize(self.words.len() + words_per_line - rem, Value::Int(0));
        }
    }

    /// Allocates `n_words` zero-initialized (by `kind`) words, aligned
    /// to a cache line, and returns the base byte address.
    ///
    /// # Errors
    ///
    /// [`VmError::HeapExhausted`] if the allocation would exceed the
    /// heap limit.
    pub fn alloc(&mut self, n_words: u32, kind: ElemKind) -> Result<Addr, VmError> {
        self.align_to_line();
        let base_word = self.words.len();
        let new_len = base_word
            .checked_add(n_words as usize)
            .ok_or(VmError::HeapExhausted)?;
        if new_len > self.limit_words {
            return Err(VmError::HeapExhausted);
        }
        let base_addr = (base_word as u64) * u64::from(WORD_BYTES);
        if base_addr + u64::from(n_words) * u64::from(WORD_BYTES) > u64::from(Addr::MAX) {
            return Err(VmError::HeapExhausted);
        }
        self.words.resize(new_len, zero_of(kind));
        Ok(base_addr as Addr)
    }

    /// Reads the word at a byte address (must be word-aligned by
    /// construction; unaligned addresses round down).
    ///
    /// # Errors
    ///
    /// [`VmError::BadAddress`] for addresses outside allocated memory.
    #[inline]
    pub fn read(&self, addr: Addr) -> Result<Value, VmError> {
        self.words
            .get((addr / WORD_BYTES) as usize)
            .copied()
            .ok_or(VmError::BadAddress(addr))
    }

    /// Writes the word at a byte address.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAddress`] for addresses outside allocated memory.
    #[inline]
    pub fn write(&mut self, addr: Addr, v: Value) -> Result<(), VmError> {
        match self.words.get_mut((addr / WORD_BYTES) as usize) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(VmError::BadAddress(addr)),
        }
    }

    /// The whole memory image, word by word (statics segment and heap).
    /// Exposed so state-equivalence checks can compare two runs
    /// bit-for-bit.
    pub fn words(&self) -> &[Value] {
        &self.words
    }

    /// Overrides the heap limit (tests exercising exhaustion).
    pub fn set_limit_words(&mut self, limit: usize) {
        self.limit_words = limit;
    }
}

fn zero_of(kind: ElemKind) -> Value {
    match kind {
        ElemKind::Int => Value::Int(0),
        ElemKind::Float => Value::Float(0.0),
        ElemKind::Ref => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_get_addresses_and_defaults() {
        let mem = Memory::new(&[ElemKind::Int, ElemKind::Float, ElemKind::Ref]);
        let a0 = mem.global_addr(0);
        assert_eq!(mem.read(a0).unwrap(), Value::Int(0));
        assert_eq!(mem.read(mem.global_addr(1)).unwrap(), Value::Float(0.0));
        assert_eq!(mem.read(mem.global_addr(2)).unwrap(), Value::Null);
        assert!(a0 >= LINE_BYTES, "null line is reserved");
    }

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut mem = Memory::new(&[]);
        let a = mem.alloc(3, ElemKind::Int).unwrap();
        let b = mem.alloc(5, ElemKind::Float).unwrap();
        assert_eq!(a % LINE_BYTES, 0);
        assert_eq!(b % LINE_BYTES, 0);
        assert!(b >= a + 3 * WORD_BYTES);
        assert_eq!(mem.read(b).unwrap(), Value::Float(0.0));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut mem = Memory::new(&[]);
        let a = mem.alloc(4, ElemKind::Int).unwrap();
        mem.write(a + 8, Value::Int(42)).unwrap();
        assert_eq!(mem.read(a + 8).unwrap(), Value::Int(42));
        assert_eq!(mem.read(a).unwrap(), Value::Int(0));
    }

    #[test]
    fn out_of_range_access_errors() {
        let mem = Memory::new(&[]);
        assert!(matches!(
            mem.read(0xFFFF_0000).unwrap_err(),
            VmError::BadAddress(_)
        ));
    }

    #[test]
    fn heap_limit_is_enforced() {
        let mut mem = Memory::new(&[]);
        mem.set_limit_words(64);
        assert!(mem.alloc(1 << 20, ElemKind::Int).is_err());
        assert!(mem.alloc(8, ElemKind::Int).is_ok());
    }
}
