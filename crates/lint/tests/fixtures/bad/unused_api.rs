// BAD: public functions no other file names. `orphan` has no caller
// at all (delete it); `helper` is called only here (drop its `pub`).
pub fn orphan() -> u32 {
    helper() + 1
}

pub fn helper() -> u32 {
    41
}
