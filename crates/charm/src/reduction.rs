//! Contribute/reduce over a spanning tree of the PEs hosting an array.
//!
//! Every element calls [`crate::Ctx::contribute`] once per generation; local
//! completion triggers a control message up a k-ary tree of the array's
//! participant PEs; the root delivers the result — either broadcast back to
//! every element (a barrier with data) or to a single chare.

use ckd_topo::Pe;

use crate::chare::ChareRef;
use crate::msg::EntryId;

/// Arity of the PE reduction/broadcast tree.
pub const TREE_ARITY: usize = 4;

/// The combining operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedOp {
    /// Pure synchronization, no data (a barrier).
    Barrier,
    /// Sum of `f64` contributions.
    SumF64,
    /// Minimum of `f64` contributions.
    MinF64,
    /// Maximum of `f64` contributions.
    MaxF64,
}

/// A contribution / partial result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RedVal {
    /// No data (barriers).
    Unit,
    /// A scalar.
    F64(f64),
}

impl RedVal {
    /// Combine under `op`. Barrier tolerates (and discards) stray values.
    pub fn combine(self, other: RedVal, op: RedOp) -> RedVal {
        match (op, self, other) {
            (RedOp::Barrier, _, _) => RedVal::Unit,
            (RedOp::SumF64, RedVal::F64(a), RedVal::F64(b)) => RedVal::F64(a + b),
            (RedOp::MinF64, RedVal::F64(a), RedVal::F64(b)) => RedVal::F64(a.min(b)),
            (RedOp::MaxF64, RedVal::F64(a), RedVal::F64(b)) => RedVal::F64(a.max(b)),
            (op, a, b) => panic!("inconsistent contributions {a:?} / {b:?} under {op:?}"),
        }
    }

    /// The identity element of `op`.
    pub fn identity(op: RedOp) -> RedVal {
        match op {
            RedOp::Barrier => RedVal::Unit,
            RedOp::SumF64 => RedVal::F64(0.0),
            RedOp::MinF64 => RedVal::F64(f64::INFINITY),
            RedOp::MaxF64 => RedVal::F64(f64::NEG_INFINITY),
        }
    }

    /// The scalar, if any.
    pub fn f64(self) -> Option<f64> {
        match self {
            RedVal::F64(v) => Some(v),
            RedVal::Unit => None,
        }
    }
}

/// Where the reduced value goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedTarget {
    /// Broadcast to every element of the contributing array at this entry
    /// point (the classic end-of-iteration barrier+restart).
    Broadcast(EntryId),
    /// Deliver to a single chare at this entry point.
    Single(ChareRef, EntryId),
}

/// Position of `pe` in the participant list's k-ary tree.
pub fn tree_rank(participants: &[Pe], pe: Pe) -> usize {
    participants
        .binary_search(&pe)
        .expect("PE is not a participant of this reduction")
}

/// Parent PE of `pe` in the tree (`None` for the root).
pub fn tree_parent(participants: &[Pe], pe: Pe) -> Option<Pe> {
    let r = tree_rank(participants, pe);
    if r == 0 {
        None
    } else {
        Some(participants[(r - 1) / TREE_ARITY])
    }
}

/// Child PEs of `pe` in the tree. A node's children are a contiguous run
/// of the participant list, so this is a sub-slice: reductions and
/// broadcasts walk the tree on every hop and must not allocate.
pub fn tree_children(participants: &[Pe], pe: Pe) -> &[Pe] {
    let first = (TREE_ARITY * tree_rank(participants, pe) + 1).min(participants.len());
    &participants[first..(first + TREE_ARITY).min(participants.len())]
}

/// Per-(PE, array) reduction bookkeeping.
#[derive(Debug)]
pub struct RedPeState {
    /// Generation currently being accumulated (starts at 0).
    pub gen: u64,
    /// Elements on this PE that contributed so far.
    pub got_local: usize,
    /// Child-subtree messages received so far.
    pub got_children: usize,
    /// Elements accounted for in this subtree so far (sanity check).
    pub count: usize,
    /// Running partial value.
    pub partial: RedVal,
    /// Operation of the current generation (fixed by first contribution).
    pub op: Option<RedOp>,
    /// Destination of the current generation.
    pub target: Option<RedTarget>,
}

impl RedPeState {
    /// Fresh state at generation 0.
    pub fn new() -> RedPeState {
        RedPeState {
            gen: 0,
            got_local: 0,
            got_children: 0,
            count: 0,
            partial: RedVal::Unit,
            op: None,
            target: None,
        }
    }

    /// Reset for the next generation.
    pub fn advance(&mut self) {
        self.gen += 1;
        self.got_local = 0;
        self.got_children = 0;
        self.count = 0;
        self.partial = RedVal::Unit;
        self.op = None;
        self.target = None;
    }

    /// Fold in a value (local contribution or child subtree result).
    pub fn absorb(&mut self, v: RedVal, count: usize, op: RedOp, target: RedTarget) {
        match self.op {
            None => {
                self.op = Some(op);
                self.target = Some(target);
                self.partial = RedVal::identity(op);
            }
            Some(prev) => {
                assert_eq!(prev, op, "mixed reduction ops in one generation");
                assert_eq!(
                    self.target,
                    Some(target),
                    "mixed reduction targets in one generation"
                );
            }
        }
        self.partial = self.partial.combine(v, op);
        self.count += count;
    }
}

impl Default for RedPeState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_ops() {
        assert_eq!(
            RedVal::F64(2.0).combine(RedVal::F64(3.0), RedOp::SumF64),
            RedVal::F64(5.0)
        );
        assert_eq!(
            RedVal::F64(2.0).combine(RedVal::F64(3.0), RedOp::MinF64),
            RedVal::F64(2.0)
        );
        assert_eq!(
            RedVal::F64(2.0).combine(RedVal::F64(3.0), RedOp::MaxF64),
            RedVal::F64(3.0)
        );
        assert_eq!(
            RedVal::Unit.combine(RedVal::Unit, RedOp::Barrier),
            RedVal::Unit
        );
    }

    #[test]
    fn identities() {
        assert_eq!(
            RedVal::identity(RedOp::SumF64).combine(RedVal::F64(7.0), RedOp::SumF64),
            RedVal::F64(7.0)
        );
        assert_eq!(
            RedVal::identity(RedOp::MinF64).combine(RedVal::F64(7.0), RedOp::MinF64),
            RedVal::F64(7.0)
        );
        assert_eq!(
            RedVal::identity(RedOp::MaxF64).combine(RedVal::F64(-7.0), RedOp::MaxF64),
            RedVal::F64(-7.0)
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent contributions")]
    fn mixing_unit_into_sum_panics() {
        let _ = RedVal::F64(1.0).combine(RedVal::Unit, RedOp::SumF64);
    }

    #[test]
    fn tree_structure() {
        let ps: Vec<Pe> = (0..13).map(Pe).collect();
        assert_eq!(tree_parent(&ps, Pe(0)), None);
        for k in 1..=4u32 {
            assert_eq!(tree_parent(&ps, Pe(k)), Some(Pe(0)));
        }
        assert_eq!(tree_parent(&ps, Pe(5)), Some(Pe(1)));
        let kids0 = tree_children(&ps, Pe(0));
        assert_eq!(kids0, [Pe(1), Pe(2), Pe(3), Pe(4)]);
        let kids2 = tree_children(&ps, Pe(2));
        assert_eq!(kids2, [Pe(9), Pe(10), Pe(11), Pe(12)]);
        assert!(tree_children(&ps, Pe(12)).is_empty());
        // a partial last level
        assert_eq!(tree_children(&ps[..11], Pe(2)), [Pe(9), Pe(10)]);
    }

    #[test]
    fn tree_over_sparse_participants() {
        // participants need not be contiguous PEs
        let ps = vec![Pe(3), Pe(17), Pe(30), Pe(31), Pe(90)];
        assert_eq!(tree_parent(&ps, Pe(3)), None);
        assert_eq!(tree_parent(&ps, Pe(90)), Some(Pe(3)));
        assert_eq!(tree_children(&ps, Pe(3)), [Pe(17), Pe(30), Pe(31), Pe(90)]);
    }

    #[test]
    fn every_non_root_has_a_parent_and_trees_are_consistent() {
        let ps: Vec<Pe> = (0..57).map(|i| Pe(i * 2)).collect();
        for &pe in &ps[1..] {
            let parent = tree_parent(&ps, pe).unwrap();
            assert!(
                tree_children(&ps, parent).contains(&pe),
                "{pe:?} missing from its parent's child list"
            );
        }
    }

    #[test]
    fn absorb_accumulates() {
        let mut st = RedPeState::new();
        let t = RedTarget::Broadcast(EntryId(1));
        st.absorb(RedVal::F64(1.5), 1, RedOp::SumF64, t);
        st.absorb(RedVal::F64(2.5), 3, RedOp::SumF64, t);
        assert_eq!(st.partial, RedVal::F64(4.0));
        assert_eq!(st.count, 4);
        st.advance();
        assert_eq!(st.gen, 1);
        assert_eq!(st.count, 0);
        assert!(st.op.is_none());
    }

    #[test]
    #[should_panic(expected = "mixed reduction ops")]
    fn mixed_ops_rejected() {
        let mut st = RedPeState::new();
        let t = RedTarget::Broadcast(EntryId(1));
        st.absorb(RedVal::F64(1.0), 1, RedOp::SumF64, t);
        st.absorb(RedVal::F64(1.0), 1, RedOp::MaxF64, t);
    }
}
