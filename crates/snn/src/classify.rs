//! Neuron-to-class assignment and the "all activity" classifier of
//! Diehl & Cook (2015).

/// Assigns each excitatory neuron to the digit class for which its mean
/// firing (spike count per presentation) was highest over the recorded
/// training samples.
///
/// `records` holds one spike-count vector per presented sample; `labels`
/// the corresponding digit labels. Neurons that never fired are assigned
/// class 0 (they then contribute nothing to prediction, matching
/// BindsNET).
///
/// # Panics
/// Panics if `records` and `labels` lengths differ, records are empty, or
/// the record widths are inconsistent.
pub fn assign_labels(records: &[Vec<f32>], labels: &[u8], n_classes: usize) -> Vec<usize> {
    assert_eq!(
        records.len(),
        labels.len(),
        "records/labels length mismatch"
    );
    assert!(!records.is_empty(), "cannot assign labels from no records");
    let n_neurons = records[0].len();
    assert!(
        records.iter().all(|r| r.len() == n_neurons),
        "inconsistent record widths"
    );
    let mut class_sums = vec![vec![0.0f64; n_neurons]; n_classes];
    let mut class_counts = vec![0usize; n_classes];
    for (record, &label) in records.iter().zip(labels) {
        let class = label as usize;
        assert!(class < n_classes, "label {label} out of range");
        class_counts[class] += 1;
        for (sum, &c) in class_sums[class].iter_mut().zip(record) {
            *sum += c as f64;
        }
    }
    (0..n_neurons)
        .map(|neuron| {
            let mut best = 0usize;
            let mut best_rate = f64::NEG_INFINITY;
            for class in 0..n_classes {
                let rate = if class_counts[class] > 0 {
                    class_sums[class][neuron] / class_counts[class] as f64
                } else {
                    0.0
                };
                if rate > best_rate {
                    best_rate = rate;
                    best = class;
                }
            }
            best
        })
        .collect()
}

/// Predicts the class of one presentation from excitatory spike counts
/// using the "all activity" rule: the class whose assigned neurons fired
/// most on average wins (ties break toward the lower class index).
///
/// # Panics
/// Panics if `counts` and `assignments` lengths differ or an assignment
/// is out of range.
pub fn predict_all_activity(counts: &[f32], assignments: &[usize], n_classes: usize) -> usize {
    assert_eq!(
        counts.len(),
        assignments.len(),
        "counts/assignments length mismatch"
    );
    let mut sums = vec![0.0f64; n_classes];
    let mut members = vec![0usize; n_classes];
    for (&count, &class) in counts.iter().zip(assignments) {
        assert!(class < n_classes, "assignment {class} out of range");
        sums[class] += count as f64;
        members[class] += 1;
    }
    let mut best = 0usize;
    let mut best_rate = f64::NEG_INFINITY;
    for class in 0..n_classes {
        let rate = if members[class] > 0 {
            sums[class] / members[class] as f64
        } else {
            f64::NEG_INFINITY
        };
        if rate > best_rate {
            best_rate = rate;
            best = class;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_by_mean_rate() {
        // Neuron 0 fires for class 1, neuron 1 for class 0.
        let records = vec![
            vec![5.0, 0.0], // label 1
            vec![0.0, 3.0], // label 0
            vec![4.0, 1.0], // label 1
        ];
        let labels = vec![1, 0, 1];
        let a = assign_labels(&records, &labels, 10);
        assert_eq!(a, vec![1, 0]);
    }

    #[test]
    fn silent_neurons_default_to_class_zero() {
        let records = vec![vec![0.0, 1.0]];
        let a = assign_labels(&records, &[3], 10);
        assert_eq!(a[0], 0);
        assert_eq!(a[1], 3);
    }

    #[test]
    fn assignment_uses_mean_not_sum() {
        // Class 2 has many weak presentations, class 7 one strong one;
        // mean rate must win for class 7.
        let records = vec![
            vec![1.0], // 2
            vec![1.0], // 2
            vec![1.0], // 2
            vec![9.0], // 7
        ];
        let a = assign_labels(&records, &[2, 2, 2, 7], 10);
        assert_eq!(a, vec![7]);
    }

    #[test]
    fn predicts_strongest_assigned_class() {
        let assignments = vec![0, 0, 1, 1, 2];
        let counts = vec![1.0, 1.0, 4.0, 2.0, 0.0];
        // class 0 mean 1.0, class 1 mean 3.0, class 2 mean 0.0.
        assert_eq!(predict_all_activity(&counts, &assignments, 10), 1);
    }

    #[test]
    fn unassigned_classes_never_win() {
        let assignments = vec![3, 3];
        let counts = vec![0.0, 0.0];
        // All-zero activity: class 3 (mean 0) beats unassigned classes.
        assert_eq!(predict_all_activity(&counts, &assignments, 10), 3);
    }

    #[test]
    fn tie_breaks_toward_lower_class() {
        let assignments = vec![4, 6];
        let counts = vec![2.0, 2.0];
        assert_eq!(predict_all_activity(&counts, &assignments, 10), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_inputs() {
        assign_labels(&[vec![1.0]], &[1, 2], 10);
    }
}
