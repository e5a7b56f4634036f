//! Fixture: an example is a reader too. Never compiled — only lexed.

fn main() {
    shell::drain(&mut Vec::new());
}
