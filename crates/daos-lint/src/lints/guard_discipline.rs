//! **guard-discipline** — every lock is taken through the one funnel.
//!
//! `daos_util::sync::lock` is where the workspace's locking policy
//! lives: it recovers from poison (a poisoned lock is survivable — the
//! panic that poisoned it is already being reported) and, in debug
//! builds, asserts the leaf-lock rule on every acquisition (DESIGN.md
//! §16). Both hold only if nothing acquires behind its back, so an
//! empty-paren `.lock()` / `.read()` / `.write()` in live code anywhere
//! else is a finding. The empty argument list is what tells
//! `Mutex::lock` from `io::Read::read(&mut buf)`; a `stdout().lock()`
//! would match too and need a `// lint: allow(guard, <reason>)`.

use super::{Code, Pass};
use crate::source::Workspace;
use crate::Finding;

/// The one file that may call `Mutex::lock`.
const FUNNEL: &str = "crates/daos-util/src/sync.rs";
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

pub struct GuardDiscipline;

impl Pass for GuardDiscipline {
    fn name(&self) -> &'static str {
        "guard-discipline"
    }

    fn allow_key(&self) -> &'static str {
        "guard"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in ws.files.iter().filter(|f| f.rel != FUNNEL) {
            let c = Code::new(file);
            for i in 1..c.len() {
                if ACQUIRE_METHODS.iter().any(|m| c.is_ident(i, m))
                    && !c.in_test(i)
                    && c.is(i - 1, ".")
                    && c.is(i + 1, "(")
                    && c.is(i + 2, ")")
                {
                    out.push(Finding::new(
                        self.name(),
                        &file.rel,
                        c.line(i),
                        format!(
                            "raw `.{}()` acquisition skips poison recovery and the \
                             leaf-lock check: take it through `daos_util::sync::lock`",
                            c.text(i)
                        ),
                    ));
                }
            }
        }
    }
}
