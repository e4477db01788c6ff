// GOOD: every public function in this directory is named here, in a
// file other than its own, so `unused-api` has nothing to flag.
fn use_everything() -> Option<Message> {
    let _ = (live(), describe(), raw(), bytes());
    Message::decode(&Message::Quit.encode())
}
