//! Rule `unused-api`: every `pub fn`, `pub const` and `pub static` in
//! non-test workspace source is named in at least one other file.
//!
//! rustc's `dead_code` lint stops at the crate boundary: a `pub fn` in a
//! library crate counts as used whether or not any caller exists. Left
//! alone, such functions pile up as the callers they were written for
//! are deleted, and each one is code that must still build, be read and
//! be kept in step. This rule closes that gap at the token level. A
//! *definition* is `pub fn` (or `pub const`/`unsafe`/`async fn`),
//! `pub const NAME` or `pub static [mut] NAME` outside test items; a
//! *reference* is the same identifier anywhere in another file of the
//! scanned set. Uses in the defining file never count, so an item only
//! its own file uses is flagged too: it should drop `pub`, after which
//! rustc's own lint watches it. `pub(crate)`/`pub(super)` are left to
//! rustc for the same reason.
//!
//! The check is by name, not by path: two unrelated functions that
//! share a name keep each other alive. That errs towards silence, never
//! towards a false finding.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::Finding;

/// Qualifiers that may sit between `pub` and `fn`.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async"];

/// The non-test `pub fn`, `pub const` and `pub static` items a file
/// defines: their kinds (`fn`, `const`, `static`), names and lines.
fn definitions(model: &FileModel) -> Vec<(&'static str, &str, u32)> {
    let toks = &model.tokens;
    let ident = |j: usize| toks.get(j).filter(|t| t.kind == TokKind::Ident);
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if !tok.is_ident("pub") || model.in_tests(i) {
            continue;
        }
        let mut j = i + 1;
        while ident(j).is_some_and(|t| QUALIFIERS.contains(&t.text.as_str())) {
            j += 1;
        }
        let (kind, name) = match ident(j) {
            Some(t) if t.is_ident("fn") => ("fn", ident(j + 1)),
            // `pub const NAME`: the qualifier loop stopped on the name.
            Some(_) if j == i + 2 && toks[i + 1].is_ident("const") => ("const", ident(j)),
            Some(t) if t.is_ident("static") => {
                let mutable = ident(j + 1).is_some_and(|t| t.is_ident("mut"));
                ("static", ident(j + 1 + usize::from(mutable)))
            }
            _ => continue,
        };
        if let Some(name) = name {
            out.push((kind, name.text.as_str(), name.line));
        }
    }
    out
}

/// Flags each `pub fn`, `pub const` and `pub static`, in the files whose
/// path `defines_api` accepts, that no other file in `scanned` names.
/// Returns how many items it checked.
pub fn check(
    scanned: &[FileModel],
    defines_api: impl Fn(&str) -> bool,
    out: &mut Vec<Finding>,
) -> usize {
    // How many distinct files name each identifier.
    let mut files_naming: BTreeMap<&str, usize> = BTreeMap::new();
    for model in scanned {
        let names: BTreeSet<&str> = model
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        for name in names {
            *files_naming.entry(name).or_default() += 1;
        }
    }
    let mut checked = 0;
    for model in scanned.iter().filter(|m| defines_api(&m.rel)) {
        for (kind, name, line) in definitions(model) {
            checked += 1;
            // The defining file itself is always one of the namers.
            if files_naming.get(name).copied().unwrap_or(0) < 2 {
                let uses = if kind == "fn" { "calls" } else { "uses" };
                out.push(Finding {
                    rule: "unused-api",
                    file: model.rel.clone(),
                    line,
                    token: name.to_string(),
                    message: format!(
                        "pub {kind} `{name}` is named in no other file: delete it, or drop \
                         `pub` if this file {uses} it"
                    ),
                });
            }
        }
    }
    checked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<String> {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(rel, src)| FileModel::parse(*rel, src))
            .collect();
        let mut out = Vec::new();
        check(&models, |rel| rel == "lib.rs", &mut out);
        out.into_iter().map(|f| f.token).collect()
    }

    #[test]
    fn only_other_files_count_as_callers() {
        let lib = "pub fn used() {} pub fn selfish() {} fn go() { selfish(); }";
        let user = "fn main() { lib::used(); }";
        assert_eq!(run(&[("lib.rs", lib), ("main.rs", user)]), ["selfish"]);
    }

    #[test]
    fn qualifiers_count_and_restricted_visibility_does_not() {
        let lib = "pub const fn a() {} pub unsafe fn b() {} pub async fn c() {} \
                   pub(crate) fn d() {} pub struct E; fn f() {}";
        assert_eq!(run(&[("lib.rs", lib)]), ["a", "b", "c"]);
    }

    #[test]
    fn constants_and_statics_count_and_const_fns_stay_fns() {
        let lib = "pub const LIMIT: usize = 3; pub static NAMES: &[&str] = &[]; \
                   pub static mut COUNTER: u32 = 0; pub const fn limit() -> usize { LIMIT } \
                   pub const USED: u8 = 1; pub(crate) const HIDDEN: u8 = 0;";
        let user = "fn f() -> u8 { lib::USED }";
        assert_eq!(
            run(&[("lib.rs", lib), ("user.rs", user)]),
            ["LIMIT", "NAMES", "COUNTER", "limit"]
        );
    }

    #[test]
    fn tests_comments_and_strings_neither_define_nor_call() {
        let lib = "pub fn doc_only() {} #[cfg(test)] mod tests { pub fn helper() {} }";
        let other = "// doc_only()\nfn f() { let s = \"doc_only\"; }";
        assert_eq!(run(&[("lib.rs", lib), ("other.rs", other)]), ["doc_only"]);
    }
}
