// BAD: public constants and statics no other file names. `CAP` and
// `LABELS` are used only here (drop their `pub`); `SPARE` is used
// nowhere (delete it).
pub const CAP: usize = 8;
pub static LABELS: &[&str] = &["a", "b"];
pub const SPARE: u32 = 7;

fn within_cap(n: usize) -> bool {
    n <= CAP && LABELS.len() < CAP
}
