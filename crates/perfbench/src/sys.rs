//! Host facts and small utilities: the seeded shuffle, the machine
//! description, peak memory, and a scratch directory inside the build
//! tree.

use std::path::{Path, PathBuf};

/// SplitMix64: a tiny seeded generator, enough to shuffle request
/// orders reproducibly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one stream
    /// per client thread).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Online processors (`nproc`), from `/proc/cpuinfo`, falling back to
/// [`available_parallelism`].
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// Threads this process may run in parallel (honours CPU quotas and
/// affinity masks).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A directory under the build tree (`$CARGO_TARGET_DIR`, else
/// `target`) that is removed again on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<target>/perfbench-tmp/<pid>-<tag>`.
    ///
    /// # Errors
    ///
    /// The I/O error of the directory creation.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let root = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let dir = root
            .join("perfbench-tmp")
            .join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..26).collect();
            Rng::new(seed, 0).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(7), shuffled(7));
        assert_ne!(shuffled(7), shuffled(8));
        let mut sorted = shuffled(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..26).collect::<Vec<u32>>());
    }
}
