//! The hand-off: consume an ordered stream of work items on the calling
//! thread while the stream is short, and on one helper thread once it
//! proves long.
//!
//! In the paper, TEST is hardware beside the processor: its comparator
//! banks consume retired events while the program keeps running. The
//! tracer behind [`crate::bus::TraceBus::run`] is a pure function of
//! its ordered input, so it can run on a second core without changing
//! a bit of output. Starting a thread costs more than a short stream
//! saves, so a [`Handoff`] consumes the first [`HANDOFF_AFTER`] items
//! inline, and only then starts one scoped helper thread, if the
//! process may run on more than one core. From then on every item goes
//! to the helper, in order, over a rendezvous channel: a push waits
//! until the helper has taken the item, and the helper sends each
//! drained buffer back for reuse, so at most two buffers are ever
//! alive, one filling and one being consumed. (A queue of one to four
//! items measured no faster and holds up to six.)
//!
//! A panic on the helper thread resurfaces on the calling thread with
//! its own payload, at the next push or at [`Handoff::finish`]; the
//! caller never waits on a dead channel.

use std::panic::resume_unwind;
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::thread::{available_parallelism, Scope, ScopedJoinHandle};
use std::time::Instant;

/// Items consumed on the calling thread before a stream is handed off:
/// for the trace bus, eight batches (32 k events).
pub const HANDOFF_AFTER: usize = 8;

/// The helper thread's end: the queue it drains, the channel its
/// drained buffers come back on, and the thread, which returns its
/// busy nanoseconds.
struct Helper<'scope, T> {
    tx: SyncSender<T>,
    back: Receiver<T>,
    thread: ScopedJoinHandle<'scope, u64>,
}

enum Consumer<'scope, T, C> {
    Here(C),
    Helper(Helper<'scope, T>),
}

/// An ordered stream's consumer, inline until the stream proves long.
///
/// The consumer is a closure that consumes one item (whose contents
/// the caller resets before reuse) and returns the nanoseconds of work
/// it spent.
pub struct Handoff<'scope, 'env, T, C> {
    /// Where the helper may start; `None` once the hand-off point is
    /// decided.
    scope: Option<&'scope Scope<'scope, 'env>>,
    /// The consumer; `None` only while it moves to the helper.
    consumer: Option<Consumer<'scope, T, C>>,
    /// Items consumed inline.
    inline: usize,
    /// Busy nanoseconds of the inline consumes.
    busy: u64,
    /// Nanoseconds the pushes held the caller.
    held: u64,
}

impl<'scope, 'env, T, C> Handoff<'scope, 'env, T, C>
where
    T: Default + Send + 'scope,
    C: FnMut(&mut T) -> u64 + Send + 'scope,
{
    /// A hand-off to `consumer` that may start its helper in `scope`.
    pub fn new(scope: &'scope Scope<'scope, 'env>, consumer: C) -> Self {
        Handoff {
            scope: Some(scope),
            consumer: Some(Consumer::Here(consumer)),
            inline: 0,
            busy: 0,
            held: 0,
        }
    }

    /// True when the next push goes to the helper thread. The first
    /// call after [`HANDOFF_AFTER`] inline items decides: it starts the
    /// helper if more than one core is available, and otherwise leaves
    /// the stream inline for good.
    fn handing_off(&mut self) -> bool {
        if self.inline >= HANDOFF_AFTER {
            if let Some(scope) = self.scope.take() {
                if available_parallelism().is_ok_and(|n| n.get() > 1) {
                    self.start(scope);
                }
            }
        }
        matches!(self.consumer, Some(Consumer::Helper(_)))
    }

    fn start(&mut self, scope: &'scope Scope<'scope, 'env>) {
        let Some(Consumer::Here(mut consume)) = self.consumer.take() else {
            unreachable!("the helper starts once, from the inline consumer")
        };
        let (tx, rx) = sync_channel::<T>(0);
        let (back_tx, back) = channel();
        let thread = scope.spawn(move || {
            let mut busy = 0;
            for mut item in rx {
                busy += consume(&mut item);
                // the caller may be gone already; the buffer then drops
                let _ = back_tx.send(item);
            }
            busy
        });
        self.consumer = Some(Consumer::Helper(Helper { tx, back, thread }));
    }

    /// Consumes `item`: inline while the stream is short, otherwise by
    /// handing it to the helper and leaving a drained buffer in its
    /// place. Either way the caller resets `item` before refilling it.
    pub fn push(&mut self, item: &mut T) {
        let t = Instant::now();
        if self.handing_off() {
            let Some(Consumer::Helper(h)) = &mut self.consumer else {
                unreachable!()
            };
            if h.tx.send(std::mem::take(item)).is_err() {
                self.rethrow();
            }
            // the helper took `item` after sending back the buffer it
            // drained before, if any; the first push leaves a fresh one
            if let Ok(spare) = h.back.try_recv() {
                *item = spare;
            }
            self.held += t.elapsed().as_nanos() as u64;
            return;
        }
        let Some(Consumer::Here(consume)) = &mut self.consumer else {
            unreachable!()
        };
        let busy = consume(item);
        self.inline += 1;
        self.busy += busy;
        self.held += busy;
    }

    /// The helper hung up early, so its consumer panicked: re-raise
    /// that panic here.
    fn rethrow(&mut self) -> ! {
        let Some(Consumer::Helper(h)) = self.consumer.take() else {
            unreachable!()
        };
        drop(h.tx);
        match h.thread.join() {
            Err(panic) => resume_unwind(panic),
            Ok(_) => unreachable!("the helper drains its queue until the caller hangs up"),
        }
    }

    /// Waits for the helper to finish, and returns the consumer's
    /// *exposed* nanoseconds: the inline consumes, plus the time pushes
    /// and this join waited on the helper, capped at the consumer's
    /// busy time on both threads (a wait longer than the work behind it
    /// is the helper waiting for a core, not consumer work). A stream
    /// that never handed off exposes exactly its busy time.
    pub fn finish(mut self) -> u64 {
        let mut busy = self.busy;
        if let Some(Consumer::Helper(h)) = self.consumer.take() {
            let t = Instant::now();
            drop(h.tx);
            busy += h.thread.join().unwrap_or_else(|panic| resume_unwind(panic));
            self.held += t.elapsed().as_nanos() as u64;
        }
        self.held.min(busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Pushes `n` one-element items into a hand-off whose consumer
    /// appends them to a log and books 1 ns each; returns the log, the
    /// exposed time and whether the stream was handed off.
    fn stream(n: u64) -> (Vec<u64>, u64, bool) {
        let mut log = Vec::new();
        let consume = |item: &mut Vec<u64>| {
            log.append(item);
            1
        };
        let (exposed, handed) = std::thread::scope(|s| {
            let mut h = Handoff::new(s, consume);
            let mut handed = false;
            for i in 0..n {
                handed |= h.handing_off();
                h.push(&mut vec![i]);
            }
            (h.finish(), handed)
        });
        (log, exposed, handed)
    }

    #[test]
    fn a_short_stream_stays_inline_and_exposes_its_busy_time() {
        let (log, exposed, handed) = stream(HANDOFF_AFTER as u64);
        assert_eq!(log, (0..8).collect::<Vec<_>>());
        assert!(!handed, "the first items stay on the calling thread");
        assert_eq!(exposed, 8);
    }

    #[test]
    fn a_long_stream_is_consumed_in_order() {
        let (log, exposed, handed) = stream(200);
        assert_eq!(log, (0..200).collect::<Vec<_>>());
        let cores = available_parallelism().map_or(1, |n| n.get());
        assert_eq!(handed, cores > 1);
        assert!(exposed <= 200, "exposed time exceeds the busy time");
    }

    #[test]
    fn a_panicking_helper_panics_the_caller() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                let mut count = 0u64;
                let consume = move |_: &mut u64| {
                    count += 1;
                    assert!(count < 12, "consumer gave up");
                    0
                };
                let mut h = Handoff::new(s, consume);
                for mut i in 0..1_000_000u64 {
                    h.push(&mut i);
                }
                h.finish()
            })
        }));
        let panic = caught.expect_err("the consumer's panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"consumer gave up"));
    }
}
