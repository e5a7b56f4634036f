//! Fixture: an integration test that reads every bait item of the other
//! lints, so only `src/dead.rs` trips dead-pub — and spells each of
//! `Engine`'s methods as something that is not a call. Never compiled —
//! only lexed.

use app::{bad_metric, status, tick};

fn shadows(engine: &app::Engine, by_param: u8) -> u8 {
    let by_local = engine.by_field;
    by_module::add(by_local, by_param)
}
