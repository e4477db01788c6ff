//! Cross-campaign scheduling policies.
//!
//! PR 3's coordinator drained its campaign queue strictly FIFO: a huge
//! front campaign starved every later one's latency, which blocks the
//! "worker fleet saturated while new grids arrive continuously" north
//! star. [`SchedulingPolicy`] makes the drain order pluggable; the
//! coordinator consults the policy once per batch claim, under the
//! scheduler lock.
//!
//! Crucially, **policies cannot affect results**. Every cell is a pure
//! function of `(setup, job)` and every campaign's merge is
//! slot-addressed, so any drain order — FIFO, round-robin, or anything
//! a future policy invents — produces merges bit-identical to serial
//! per-campaign runs by construction. A policy is purely a latency /
//! fairness knob.

/// A campaign the policy may schedule from right now: its queue id, its
/// configured weight, and how many cells it still has pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The campaign's queue id (queue order == id order).
    pub id: usize,
    /// The campaign's scheduling weight (0 is treated as 1).
    pub weight: u32,
    /// Unassigned cells remaining in the campaign.
    pub pending: usize,
}

/// Picks which campaign serves the next batch.
///
/// Implementations may keep state between calls (the coordinator holds
/// the policy for the lifetime of the run, under the scheduler lock).
/// Campaigns submitted mid-run simply start appearing in `candidates`.
pub trait SchedulingPolicy: Send {
    /// Returns the queue id of the campaign to serve next. `candidates`
    /// is non-empty and sorted by id; the returned id must be one of
    /// them (the coordinator falls back to `candidates[0]` otherwise,
    /// so a buggy policy degrades to FIFO instead of panicking).
    fn pick(&mut self, candidates: &[Candidate]) -> usize;

    /// Human-readable name, surfaced in logs.
    fn name(&self) -> &'static str;
}

/// Which built-in policy a coordinator runs. This is the `Clone`able
/// configuration knob; [`PolicyKind::build`] instantiates the stateful
/// policy at serve time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Drain campaigns in queue order — PR 3's behaviour, the default.
    #[default]
    Fifo,
    /// Rotate over schedulable campaigns, serving each `weight`
    /// consecutive batches per turn (`repro serve --fair`).
    WeightedRoundRobin,
}

impl PolicyKind {
    /// Instantiates the policy's runtime state.
    pub fn build(self) -> Box<dyn SchedulingPolicy> {
        match self {
            PolicyKind::Fifo => Box::new(Fifo),
            PolicyKind::WeightedRoundRobin => Box::new(WeightedRoundRobin::new()),
        }
    }
}

/// Strict queue order: the first campaign with pending work wins.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedulingPolicy for Fifo {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        candidates[0].id
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Weighted round-robin: campaigns take turns in id order; a campaign
/// with weight `w` is served `w` consecutive batches per turn.
///
/// Fairness bound: while `k` campaigns are schedulable, a campaign
/// never waits more than `sum(other weights)` batch claims between two
/// of its own turns — interleaving is proportional, and no campaign can
/// be starved no matter how large the others' grids are.
#[derive(Debug, Clone, Copy)]
pub struct WeightedRoundRobin {
    /// Id of the campaign currently taking its turn (`None` before the
    /// first pick).
    turn: Option<usize>,
    /// Batches left in the current turn.
    remaining: u32,
}

impl WeightedRoundRobin {
    /// A fresh rotation (the first pick starts at the lowest id).
    pub fn new() -> WeightedRoundRobin {
        WeightedRoundRobin {
            turn: None,
            remaining: 0,
        }
    }
}

impl Default for WeightedRoundRobin {
    fn default() -> WeightedRoundRobin {
        WeightedRoundRobin::new()
    }
}

impl SchedulingPolicy for WeightedRoundRobin {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        // Continue the current turn while its campaign is schedulable
        // and has credit left.
        if let (Some(turn), 1..) = (self.turn, self.remaining) {
            if let Some(current) = candidates.iter().find(|c| c.id == turn) {
                self.remaining -= 1;
                return current.id;
            }
        }
        // Turn over: the next schedulable id after the current one, in
        // id order, wrapping — a campaign that drained or was poisoned
        // is simply skipped.
        let next = match self.turn {
            Some(turn) => candidates
                .iter()
                .find(|c| c.id > turn)
                .unwrap_or(&candidates[0]),
            None => &candidates[0],
        };
        self.turn = Some(next.id);
        self.remaining = next.weight.max(1) - 1;
        next.id
    }

    fn name(&self) -> &'static str {
        "weighted-round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates(spec: &[(usize, u32, usize)]) -> Vec<Candidate> {
        spec.iter()
            .map(|&(id, weight, pending)| Candidate {
                id,
                weight,
                pending,
            })
            .collect()
    }

    /// Replays `claims` picks against a fixed candidate set.
    fn sequence(policy: &mut dyn SchedulingPolicy, set: &[Candidate], claims: usize) -> Vec<usize> {
        (0..claims).map(|_| policy.pick(set)).collect()
    }

    #[test]
    fn fifo_always_serves_the_front_campaign() {
        let set = candidates(&[(0, 1, 100), (1, 5, 100)]);
        let mut policy = PolicyKind::Fifo.build();
        assert_eq!(sequence(policy.as_mut(), &set, 4), vec![0, 0, 0, 0]);
        assert_eq!(policy.name(), "fifo");
    }

    #[test]
    fn equal_weights_alternate_strictly() {
        let set = candidates(&[(0, 1, 100), (1, 1, 100)]);
        let mut policy = PolicyKind::WeightedRoundRobin.build();
        assert_eq!(
            sequence(policy.as_mut(), &set, 6),
            vec![0, 1, 0, 1, 0, 1],
            "two equal-weight campaigns must interleave 1:1"
        );
    }

    #[test]
    fn weights_grant_proportional_consecutive_batches() {
        let set = candidates(&[(0, 2, 100), (1, 1, 100), (2, 3, 100)]);
        let mut policy = WeightedRoundRobin::new();
        assert_eq!(
            sequence(&mut policy, &set, 12),
            vec![0, 0, 1, 2, 2, 2, 0, 0, 1, 2, 2, 2],
            "each rotation serves weight-many batches per campaign"
        );
    }

    #[test]
    fn zero_weight_is_treated_as_one() {
        let set = candidates(&[(0, 0, 10), (1, 0, 10)]);
        let mut policy = WeightedRoundRobin::new();
        assert_eq!(sequence(&mut policy, &set, 4), vec![0, 1, 0, 1]);
    }

    #[test]
    fn drained_campaigns_are_skipped_and_rotation_continues() {
        let mut policy = WeightedRoundRobin::new();
        let all = candidates(&[(0, 1, 10), (1, 1, 10), (2, 1, 10)]);
        assert_eq!(policy.pick(&all), 0);
        // Campaign 1 drains (or is poisoned) mid-rotation: the next turn
        // falls through to 2, then wraps to 0.
        let remaining = candidates(&[(0, 1, 10), (2, 1, 10)]);
        assert_eq!(policy.pick(&remaining), 2);
        assert_eq!(policy.pick(&remaining), 0);
        // A lone survivor is served continuously, never deadlocked.
        let lone = candidates(&[(2, 1, 10)]);
        assert_eq!(policy.pick(&lone), 2);
        assert_eq!(policy.pick(&lone), 2);
    }

    #[test]
    fn submitted_campaigns_join_the_rotation() {
        let mut policy = WeightedRoundRobin::new();
        let before = candidates(&[(0, 1, 10)]);
        assert_eq!(policy.pick(&before), 0);
        // A live submission appends id 1: it gets the very next turn.
        let after = candidates(&[(0, 1, 10), (1, 1, 10)]);
        assert_eq!(policy.pick(&after), 1);
        assert_eq!(policy.pick(&after), 0);
    }

    #[test]
    fn starvation_bound_holds_under_every_weighting() {
        // Property-style check over a few weightings: within any window
        // of sum(weights) consecutive picks, every campaign appears at
        // least once (the weight-proportional no-starvation bound).
        for weights in [[1u32, 1, 1], [2, 1, 1], [3, 2, 1], [5, 1, 2]] {
            let set = candidates(&[
                (0, weights[0], 1000),
                (1, weights[1], 1000),
                (2, weights[2], 1000),
            ]);
            let window: usize = weights.iter().sum::<u32>() as usize;
            let mut policy = WeightedRoundRobin::new();
            let picks = sequence(&mut policy, &set, window * 6);
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
