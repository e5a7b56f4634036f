//! Fixture: public items nothing reads. Never compiled — only lexed.

/// Nobody names this function anywhere.
pub fn unread() {}

/// Named only by this file's own test code.
pub const fn test_only() -> u8 {
    7
}

/// Named only by the crate's `pub use` in `lib.rs`: a re-export
/// forwards a name, it does not read it.
pub struct Reexported;

/// `MENTIONED` appears in this comment and in the string below — text,
/// not code.
pub const MENTIONED: &str = "MENTIONED";

/// Read by `tests/callers.rs`; its methods are not — there, each name is
/// a field, a local, a parameter or a module, never a call.
pub struct Engine {
    pub by_field: u8,
}

impl Engine {
    pub fn by_field(&self) -> u8 {
        self.by_field
    }

    pub fn by_local(&self) -> u8 {
        1
    }

    pub fn by_param(&self) -> u8 {
        2
    }

    pub fn by_module(&self) -> u8 {
        3
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_test_only() {
        assert_eq!(super::test_only(), 7);
    }
}
