//! Pins the exact bytes the checkpoint journal and the result store
//! write. Both sit on one shared log engine (`neurofi_store::log`), and
//! journals and stores written by earlier builds must keep reopening,
//! so neither format may drift: header, record keywords, decimal versus
//! hex fields, and the hex IEEE-754 bit patterns of awkward floats.

use std::path::PathBuf;

use neurofi_core::sweep::{CellResult, SweepCell};
use neurofi_dist::Journal;
use neurofi_store::{EvictionPolicy, Store};

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("neurofi-log-format-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A cell with a negative float, one that needs all 17 significant
/// digits, and a negative zero.
fn awkward_cell() -> SweepCell {
    SweepCell {
        rel_change: -0.2,
        fraction: 1.0,
        accuracy: 0.1f64.next_up(),
        relative_change_percent: -0.0,
    }
}

/// The store text with every record's stamp (its third field, wall
/// clock seconds) replaced by `<stamp>`.
fn mask_stamps(text: &str) -> String {
    text.lines()
        .map(|line| {
            let mut fields: Vec<&str> = line.split(' ').collect();
            if fields.len() > 3 {
                fields[2] = "<stamp>";
            }
            fields.join(" ") + "\n"
        })
        .collect()
}

#[test]
fn journal_bytes_are_pinned() {
    let path = temp_dir("journal").join("run.journal.tiny");
    let (mut journal, _) = Journal::open(&path, 0x0123_4567_89ab_cdef, 6).unwrap();
    journal.record_baseline(0.5625).unwrap();
    journal
        .record_cell(&CellResult {
            index: 5,
            cell: awkward_cell(),
        })
        .unwrap();
    drop(journal);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        "neurofi-dist-journal v1 digest=0123456789abcdef cells=6\n\
         baseline 3fe2000000000000\n\
         cell 5 bfc999999999999a 3ff0000000000000 3fb999999999999b 8000000000000000\n"
    );
}

#[test]
fn store_bytes_are_pinned_across_appends_and_compaction() {
    let path = temp_dir("store").join("results.store");
    let mut store = Store::open(&path).unwrap();
    store.put_cell(0xfeed, awkward_cell()).unwrap();
    store.put_baseline(0xbeef, 0.5625).unwrap();
    store.put_cell(0xabc, awkward_cell()).unwrap();
    let appended = "neurofi-store v1\n\
                    cell 000000000000feed <stamp> bfc999999999999a 3ff0000000000000 \
                    3fb999999999999b 8000000000000000\n\
                    base 000000000000beef <stamp> 3fe2000000000000\n\
                    cell 0000000000000abc <stamp> bfc999999999999a 3ff0000000000000 \
                    3fb999999999999b 8000000000000000\n";
    assert_eq!(
        mask_stamps(&std::fs::read_to_string(&path).unwrap()),
        appended
    );

    // Compaction rewrites cells, then baselines, each in digest order.
    store.compact(&EvictionPolicy::default(), 0).unwrap();
    drop(store);
    let compacted = "neurofi-store v1\n\
                     cell 0000000000000abc <stamp> bfc999999999999a 3ff0000000000000 \
                     3fb999999999999b 8000000000000000\n\
                     cell 000000000000feed <stamp> bfc999999999999a 3ff0000000000000 \
                     3fb999999999999b 8000000000000000\n\
                     base 000000000000beef <stamp> 3fe2000000000000\n";
    assert_eq!(
        mask_stamps(&std::fs::read_to_string(&path).unwrap()),
        compacted
    );
    assert_eq!(Store::open(&path).unwrap().len(), 3, "the rewrite reopens");
}
