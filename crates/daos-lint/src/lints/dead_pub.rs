//! **dead-pub** — every public item has a reader.
//!
//! rustc's `dead_code` lint stops at `pub`: an exported item nothing
//! calls is invisible to it. This pass is the token-level complement.
//! Every `pub fn/struct/enum/trait/const/static/type` outside `src/bin/`
//! and outside `#[cfg(test)]` code must be named by a code token in
//! another file — library, integration test, example, or the ledger —
//! or by its own file outside its test code. Comments and strings never
//! count (the lexer knows them), and neither does a `pub use`: a
//! re-export forwards a name, it does not read it. A `pub fn` in an
//! `impl` block — a method — is read only through a call: a `.name(` or
//! `.name::<` token, or a `::name` path; a field, local, parameter or
//! module spelled the same does not count. There is no type resolution,
//! so a name shared with a live item hides a dead one (a `::name` module
//! path hides a method of that name); the pass finds fewer dead items
//! than exist, never a live one. It takes no allow key: the fix is to
//! delete the item or drop its `pub`.

use super::{Code, Pass};
use crate::lexer::TokenKind;
use crate::source::Workspace;
use crate::Finding;
use std::collections::HashMap;

pub struct DeadPub;

impl Pass for DeadPub {
    fn name(&self) -> &'static str {
        "dead-pub"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // (name, file index, line, is a method) of every checked public item.
        let mut declared = Vec::new();
        // name → (file index, inside test code, is a call) of every
        // reading token.
        let mut reads: HashMap<&str, Vec<(usize, bool, bool)>> = HashMap::new();
        for (fi, file) in ws.files.iter().chain(&ws.readers).enumerate() {
            let checked = fi < ws.files.len() && !file.rel.contains("/src/bin/");
            let c = Code::new(file);
            let mut decl = None;
            // Per open `{`: whether it opens an `impl` block's body.
            let (mut braces, mut impl_next) = (Vec::new(), false);
            let mut i = 0;
            while i < c.len() {
                let prev = |s| c.is(i.wrapping_sub(1), s);
                if c.is_ident(i, "pub") && c.is_ident(i + 1, "use") {
                    while i < c.len() && !c.is(i, ";") {
                        i += 1;
                    }
                } else if c.is(i, "{") {
                    braces.push(std::mem::take(&mut impl_next));
                } else if c.is(i, "}") {
                    braces.pop();
                } else if c.is_ident(i, "impl") {
                    // An item, not an `impl Trait` type in a signature.
                    impl_next = i == 0 || ["}", ";", "{", "]", "unsafe"].into_iter().any(prev);
                } else if c.is_ident(i, "pub") {
                    decl = item_name(&c, i + 1);
                    if let Some(n) = decl.filter(|_| checked && !c.in_test(i)) {
                        let method = c.is(n - 1, "fn") && braces.last() == Some(&true);
                        declared.push((c.text(n), fi, c.line(n), method));
                    }
                } else if c.kind(i) == TokenKind::Ident && decl != Some(i) {
                    let turbofish = c.is(i + 1, ":") && c.is(i + 2, ":") && c.is(i + 3, "<");
                    let called = prev(".") && (c.is(i + 1, "(") || turbofish)
                        || prev(":") && c.is(i.wrapping_sub(2), ":");
                    reads.entry(c.text(i)).or_default().push((fi, c.in_test(i), called));
                }
                i += 1;
            }
        }
        for (name, fi, line, method) in declared {
            let reader =
                |&(f, t, called): &(usize, bool, bool)| (f != fi || !t) && (called || !method);
            if !reads.get(name).is_some_and(|r| r.iter().any(reader)) {
                let msg = format!("`{name}` is public, but nothing outside its own tests names it");
                out.push(Finding::new(self.name(), &ws.files[fi].rel, line, msg));
            }
        }
    }
}

/// The index of the name a `pub` at `at - 1` declares, if it introduces
/// a `fn`, `struct`, `enum`, `trait`, `const`, `static` or `type` (after
/// any `const`/`unsafe`/`async`/`extern "abi"` qualifiers).
fn item_name(c: &Code<'_>, mut at: usize) -> Option<usize> {
    const QUALIFIERS: [&str; 4] = ["const", "unsafe", "async", "extern"];
    while at + 1 < c.len() {
        let next_is_name = c.kind(at + 1) == TokenKind::Ident
            && c.text(at + 1) != "_"
            && !QUALIFIERS.contains(&c.text(at + 1));
        match c.text(at) {
            "fn" | "struct" | "enum" | "trait" | "static" | "type" => {
                return next_is_name.then_some(at + 1)
            }
            "const" if next_is_name && !c.is(at + 1, "fn") => return Some(at + 1),
            q if QUALIFIERS.contains(&q) => at += 1,
            _ if c.kind(at) == TokenKind::Str => at += 1,
            _ => return None,
        }
    }
    None
}
