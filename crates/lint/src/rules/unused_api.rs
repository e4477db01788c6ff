//! Rule `unused-api`: every `pub fn` in non-test workspace source is
//! named in at least one other file.
//!
//! rustc's `dead_code` lint stops at the crate boundary: a `pub fn` in a
//! library crate counts as used whether or not any caller exists. Left
//! alone, such functions pile up as the callers they were written for
//! are deleted, and each one is code that must still build, be read and
//! be kept in step. This rule closes that gap at the token level. A
//! *definition* is `pub fn` (or `pub const`/`unsafe`/`async fn`)
//! outside test items; a *reference* is the same identifier anywhere in
//! another file of the scanned set. Uses in the defining file never
//! count, so a function only its own file calls is flagged too: it
//! should drop `pub`, after which rustc's own lint watches it.
//! `pub(crate)`/`pub(super)` are left to rustc for the same reason.
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

/// The non-test `pub fn` names a file defines, with their lines.
fn definitions(model: &FileModel) -> Vec<(&str, u32)> {
    let toks = &model.tokens;
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if !tok.is_ident("pub") || model.in_tests(i) {
            continue;
        }
        let mut j = i + 1;
        while toks
            .get(j)
            .is_some_and(|t| t.kind == TokKind::Ident && QUALIFIERS.contains(&t.text.as_str()))
        {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_ident("fn")) {
            if let Some(name) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) {
                out.push((name.text.as_str(), name.line));
            }
        }
    }
    out
}

/// Flags each `pub fn`, in the files whose path `defines_api` accepts,
/// that no other file in `scanned` names. Returns how many `pub fn`s it
/// checked.
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
        for (name, line) in definitions(model) {
            checked += 1;
            // The defining file itself is always one of the namers.
            if files_naming.get(name).copied().unwrap_or(0) < 2 {
                out.push(Finding {
                    rule: "unused-api",
                    file: model.rel.clone(),
                    line,
                    token: name.to_string(),
                    message: format!(
                        "pub fn `{name}` is named in no other file: delete it, or drop `pub` \
                         if this file calls it"
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
    fn tests_comments_and_strings_neither_define_nor_call() {
        let lib = "pub fn doc_only() {} #[cfg(test)] mod tests { pub fn helper() {} }";
        let other = "// doc_only()\nfn f() { let s = \"doc_only\"; }";
        assert_eq!(run(&[("lib.rs", lib), ("other.rs", other)]), ["doc_only"]);
    }
}
