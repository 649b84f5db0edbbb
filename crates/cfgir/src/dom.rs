//! Dominator computation (Cooper–Harvey–Kennedy iterative algorithm).

use crate::cfg::{BlockId, Cfg};

/// Immediate-dominator tree for a [`Cfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominators {
    /// `idom[b]` is the immediate dominator of block `b`; the entry
    /// block is its own idom.
    idom: Vec<BlockId>,
    /// Reverse post-order number of each block (entry = 0).
    rpo_number: Vec<u32>,
}

impl Dominators {
    /// Computes dominators with the classic "engineered" iterative
    /// algorithm over reverse post-order.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.len();
        let rpo = cfg.reverse_postorder();
        let mut rpo_number = vec![u32::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_number[b.0 as usize] = i as u32;
        }

        let undefined = BlockId(u32::MAX);
        let mut idom = vec![undefined; n];
        if n == 0 {
            return Dominators { idom, rpo_number };
        }
        idom[0] = BlockId(0);

        let intersect = |idom: &[BlockId], rpo_number: &[u32], a: BlockId, b: BlockId| {
            let mut x = a;
            let mut y = b;
            while x != y {
                while rpo_number[x.0 as usize] > rpo_number[y.0 as usize] {
                    x = idom[x.0 as usize];
                }
                while rpo_number[y.0 as usize] > rpo_number[x.0 as usize] {
                    y = idom[y.0 as usize];
                }
            }
            x
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let preds = &cfg.blocks[b.0 as usize].preds;
                let mut new_idom: Option<BlockId> = None;
                for &p in preds {
                    if idom[p.0 as usize] == undefined {
                        continue; // not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_number, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.0 as usize] != ni {
                        idom[b.0 as usize] = ni;
                        changed = true;
                    }
                }
            }
        }

        Dominators { idom, rpo_number }
    }

    /// True if `a` dominates `b` (reflexive: every block dominates
    /// itself).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut x = b;
        loop {
            if x == a {
                return true;
            }
            let parent = self.idom[x.0 as usize];
            if parent == x {
                return false; // reached entry
            }
            x = parent;
        }
    }

    /// The immediate dominator of `b` (the entry block returns itself).
    pub fn idom(&self, b: BlockId) -> BlockId {
        self.idom[b.0 as usize]
    }

    /// Reverse post-order number of `b`.
    pub fn rpo_number(&self, b: BlockId) -> u32 {
        self.rpo_number[b.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use tvm::isa::Cond;
    use tvm::ProgramBuilder;

    fn cfg_of(body: impl FnOnce(&mut tvm::FnBuilder)) -> Cfg {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            body(f);
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        Cfg::build(&p.functions[0])
    }

    #[test]
    fn entry_dominates_everything() {
        let cfg = cfg_of(|f| {
            let i = f.local();
            f.for_in(i, 0.into(), 3.into(), |f| {
                f.if_icmp(
                    Cond::Eq,
                    |f| {
                        f.ld(i).ci(1);
                    },
                    |f| {
                        f.inc(i, 1);
                    },
                );
            });
        });
        let dom = Dominators::compute(&cfg);
        for b in 0..cfg.len() {
            assert!(dom.dominates(BlockId(0), BlockId(b as u32)));
        }
    }

    #[test]
    fn branch_arms_do_not_dominate_join() {
        let cfg = cfg_of(|f| {
            let x = f.local();
            f.ci(0).st(x);
            f.if_else_icmp(
                Cond::Gt,
                |f| {
                    f.ld(x).ci(0);
                },
                |f| {
                    f.ci(1).st(x);
                },
                |f| {
                    f.ci(2).st(x);
                },
            );
            f.ld(x).drop_top();
        });
        let dom = Dominators::compute(&cfg);
        // find the two-successor block (the branch head)
        let head = (0..cfg.len())
            .map(|i| BlockId(i as u32))
            .find(|b| cfg.blocks[b.0 as usize].succs.len() == 2)
            .unwrap();
        let [a, b] = [
            cfg.blocks[head.0 as usize].succs[0],
            cfg.blocks[head.0 as usize].succs[1],
        ];
        // the join block is a successor of both arms
        let join = cfg.blocks[a.0 as usize]
            .succs
            .iter()
            .find(|s| cfg.blocks[b.0 as usize].succs.contains(s))
            .copied()
            .unwrap();
        assert!(dom.dominates(head, join));
        assert!(!dom.dominates(a, join));
        assert!(!dom.dominates(b, join));
    }

    #[test]
    fn loop_header_dominates_latch() {
        let cfg = cfg_of(|f| {
            let i = f.local();
            f.for_in(i, 0.into(), 3.into(), |_f| {});
        });
        let dom = Dominators::compute(&cfg);
        // back edge: block whose successor has smaller or equal id
        let (latch, header) = cfg
            .blocks
            .iter()
            .enumerate()
            .find_map(|(i, b)| {
                b.succs
                    .iter()
                    .find(|s| (s.0 as usize) <= i)
                    .map(|&s| (BlockId(i as u32), s))
            })
            .unwrap();
        assert!(dom.dominates(header, latch));
    }
}
