//! Cross-campaign scheduling: which campaign serves the next batch.
//!
//! A coordinator drains its campaign queue in queue order by default
//! ([`PolicyKind::Fifo`]), so a huge front campaign delays every later
//! one. Under `repro serve --fair` ([`PolicyKind::WeightedRoundRobin`])
//! campaigns take turns instead. The coordinator consults its
//! scheduling state once per batch claim, under the scheduler lock.
//!
//! Crucially, **the drain order cannot affect results**. Every cell is
//! a pure function of `(setup, job)` and every campaign's merge is
//! slot-addressed, so any drain order produces merges bit-identical to
//! serial per-campaign runs by construction. The policy is purely a
//! latency / fairness knob.

/// A campaign the coordinator may schedule from right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Candidate {
    /// The campaign's queue id (queue order == id order).
    pub(crate) id: usize,
    /// The campaign's scheduling weight (0 is treated as 1).
    pub(crate) weight: u32,
}

/// Which drain order a coordinator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Drain campaigns in queue order, the default.
    #[default]
    Fifo,
    /// Rotate over schedulable campaigns, serving each `weight`
    /// consecutive batches per turn (`repro serve --fair`).
    ///
    /// Fairness bound: while `k` campaigns are schedulable, a campaign
    /// never waits more than `sum(other weights)` batch claims between
    /// two of its own turns — interleaving is proportional, and no
    /// campaign can be starved no matter how large the others' grids
    /// are.
    WeightedRoundRobin,
}

/// A coordinator's scheduling state for the lifetime of a run: its
/// policy and, under weighted round-robin, the rotation. Campaigns
/// submitted mid-run simply start appearing among the candidates.
#[derive(Debug)]
pub(crate) struct Scheduler {
    policy: PolicyKind,
    /// Id of the campaign currently taking its round-robin turn (`None`
    /// before the first pick).
    turn: Option<usize>,
    /// Batches left in the current turn.
    remaining: u32,
}

impl Scheduler {
    /// A fresh state (a rotation's first pick starts at the lowest id).
    pub(crate) fn new(policy: PolicyKind) -> Scheduler {
        Scheduler {
            policy,
            turn: None,
            remaining: 0,
        }
    }

    /// The queue id of the campaign to serve next, one of `candidates`
    /// (sorted by id); `None` when there is none.
    pub(crate) fn pick(&mut self, candidates: &[Candidate]) -> Option<usize> {
        match self.policy {
            PolicyKind::Fifo => candidates.first().map(|c| c.id),
            PolicyKind::WeightedRoundRobin => {
                // Continue the current turn while its campaign is
                // schedulable and has credit left.
                if let (Some(turn), 1..) = (self.turn, self.remaining) {
                    if candidates.iter().any(|c| c.id == turn) {
                        self.remaining -= 1;
                        return Some(turn);
                    }
                }
                // Turn over: the next schedulable id after the current
                // one, in id order, wrapping — a campaign that drained
                // or was poisoned is simply skipped.
                let next = self
                    .turn
                    .and_then(|turn| candidates.iter().find(|c| c.id > turn))
                    .or(candidates.first())?;
                self.turn = Some(next.id);
                self.remaining = next.weight.max(1) - 1;
                Some(next.id)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates(spec: &[(usize, u32)]) -> Vec<Candidate> {
        spec.iter()
            .map(|&(id, weight)| Candidate { id, weight })
            .collect()
    }

    /// Replays `claims` picks against a fixed candidate set.
    fn sequence(scheduler: &mut Scheduler, set: &[Candidate], claims: usize) -> Vec<usize> {
        let mut pick = || scheduler.pick(set).expect("the set is non-empty");
        (0..claims).map(|_| pick()).collect()
    }

    fn round_robin() -> Scheduler {
        Scheduler::new(PolicyKind::WeightedRoundRobin)
    }

    #[test]
    fn fifo_always_serves_the_front_campaign() {
        let set = candidates(&[(0, 1), (1, 5)]);
        let mut fifo = Scheduler::new(PolicyKind::Fifo);
        assert_eq!(sequence(&mut fifo, &set, 4), vec![0, 0, 0, 0]);
        assert_eq!(fifo.pick(&[]), None);
    }

    #[test]
    fn equal_weights_alternate_strictly() {
        let set = candidates(&[(0, 1), (1, 1)]);
        assert_eq!(
            sequence(&mut round_robin(), &set, 6),
            vec![0, 1, 0, 1, 0, 1],
            "two equal-weight campaigns must interleave 1:1"
        );
    }

    #[test]
    fn weights_grant_proportional_consecutive_batches() {
        let set = candidates(&[(0, 2), (1, 1), (2, 3)]);
        assert_eq!(
            sequence(&mut round_robin(), &set, 12),
            vec![0, 0, 1, 2, 2, 2, 0, 0, 1, 2, 2, 2],
            "each rotation serves weight-many batches per campaign"
        );
    }

    #[test]
    fn zero_weight_is_treated_as_one() {
        let set = candidates(&[(0, 0), (1, 0)]);
        assert_eq!(sequence(&mut round_robin(), &set, 4), vec![0, 1, 0, 1]);
    }

    #[test]
    fn drained_campaigns_are_skipped_and_rotation_continues() {
        let mut policy = round_robin();
        let all = candidates(&[(0, 1), (1, 1), (2, 1)]);
        assert_eq!(policy.pick(&all), Some(0));
        // Campaign 1 drains (or is poisoned) mid-rotation: the next turn
        // falls through to 2, then wraps to 0.
        let remaining = candidates(&[(0, 1), (2, 1)]);
        assert_eq!(policy.pick(&remaining), Some(2));
        assert_eq!(policy.pick(&remaining), Some(0));
        // A lone survivor is served continuously, never deadlocked.
        let lone = candidates(&[(2, 1)]);
        assert_eq!(policy.pick(&lone), Some(2));
        assert_eq!(policy.pick(&lone), Some(2));
        // Nothing schedulable: no pick, and the rotation resumes after.
        assert_eq!(policy.pick(&[]), None);
        assert_eq!(policy.pick(&all), Some(0));
    }

    #[test]
    fn submitted_campaigns_join_the_rotation() {
        let mut policy = round_robin();
        let before = candidates(&[(0, 1)]);
        assert_eq!(policy.pick(&before), Some(0));
        // A live submission appends id 1: it gets the very next turn.
        let after = candidates(&[(0, 1), (1, 1)]);
        assert_eq!(policy.pick(&after), Some(1));
        assert_eq!(policy.pick(&after), Some(0));
    }

    #[test]
    fn starvation_bound_holds_under_every_weighting() {
        // Property-style check over a few weightings: within any window
        // of sum(weights) consecutive picks, every campaign appears at
        // least once (the weight-proportional no-starvation bound).
        for weights in [[1u32, 1, 1], [2, 1, 1], [3, 2, 1], [5, 1, 2]] {
            let set = candidates(&[(0, weights[0]), (1, weights[1]), (2, weights[2])]);
            let window: usize = weights.iter().sum::<u32>() as usize;
            let picks = sequence(&mut round_robin(), &set, window * 6);
            for start in 0..picks.len() - window {
                let slice = &picks[start..start + window];
                for id in 0..3 {
                    assert!(
                        slice.contains(&id),
                        "weights {weights:?}: campaign {id} starved in window {slice:?}"
                    );
                }
            }
        }
    }
}
