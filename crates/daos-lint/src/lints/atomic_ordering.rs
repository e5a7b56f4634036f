//! **atomic-ordering** — every memory-ordering choice is justified.
//!
//! Each `Ordering::SeqCst` / `AcqRel` / `Acquire` / `Release` /
//! `Relaxed` use must carry an `// ordering: <why>` comment on the same
//! line or the line(s) immediately above, naming what the ordering
//! pairs with (or why no pairing is needed). `SeqCst` written out of
//! caution and `Relaxed` written out of optimism look identical in
//! code; the comment is where the reasoning lives, and this lint makes
//! it load-bearing.

use super::{Code, Pass};
use crate::source::Workspace;
use crate::Finding;

const ORDERINGS: [&str; 5] = ["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"];

pub struct AtomicOrdering;

impl Pass for AtomicOrdering {
    fn name(&self) -> &'static str {
        "atomic-ordering"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            let c = Code::new(file);
            for i in 0..c.len() {
                if !(c.is_ident(i, "Ordering")
                    && c.is(i + 1, ":")
                    && c.is(i + 2, ":")
                    && i + 3 < c.len()
                    && ORDERINGS.contains(&c.text(i + 3)))
                {
                    continue;
                }
                let justified = file.ordering_justified.contains(&c.line(i))
                    || file.ordering_justified.contains(&c.line(i + 3));
                if !justified {
                    out.push(Finding::new(
                        self.name(),
                        &file.rel,
                        c.line(i + 3),
                        format!(
                            "`Ordering::{}` without an `// ordering:` \
                             justification comment",
                            c.text(i + 3)
                        ),
                    ));
                }
            }
        }
    }
}
