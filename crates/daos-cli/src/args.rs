//! Minimal argument parsing: positionals plus `--key value` / `--flag`
//! options, with typed accessors. A subcommand takes exactly the options
//! its [`USAGE`] block names — the one list there is — so a misspelt
//! `--key`, or another subcommand's, is a usage error, never a silent
//! run of the defaults.

use std::collections::BTreeMap;

use daos::DaosError;

/// Parsed command-line arguments.
#[derive(Debug, Default, Clone)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// The `daos` binary's help text, and the option table: a subcommand's
/// block — its 4-space-indented header line (`report heatmap <FILE>`
/// heads `report heatmap`) and the deeper-indented lines below it —
/// names every `--option` it takes; `[--key]` is a flag, any other
/// `--key` takes a value.
pub const USAGE: &str = "\
daos — data access-aware memory management (paper reproduction tool)

USAGE:
    daos <SUBCOMMAND> [ARGS]

SUBCOMMANDS:
    list                      list the available workload analogs
    run <workload>            run one configuration and print a summary
        [--config baseline|rec|prec|thp|ethp|prcl|damon_reclaim]
        [--machine i3|m5d|z1d] [--seed N] [--epochs N]
        [--serve ADDR]        expose live /metrics /snapshot /events
                              /healthz /statusz /query while the run
                              executes
        [--publish-every N] [--ring N] [--linger]
        [--profile-wall]      print host wall time per engine phase
    top <ADDR | workload>     live dashboard (WSS sparkline, hottest
        regions, scheme state, span latencies); ADDR attaches to a
        served run's endpoint, a workload name runs it in-process
        [--refresh MS] [--iterations N] [--plain]
        [--config ...] [--machine ...] [--seed N] [--epochs N]
        [--ring N] [--publish-every N]
    record <workload>         monitor a workload, write every aggregation
        window as trace JSONL (default daos.record.jsonl)
        [--machine i3|m5d|z1d] [--paddr] [--seed N] [--out FILE]
    report <KIND> <FILE>      FILE is JSONL from `daos record` or `daos trace`
    report heatmap <FILE>     render the recorded windows as an ASCII heatmap
        [--rows N] [--cols N] [--json]
    report wss <FILE>         working-set-size series + percentiles
        [--distribution] [--json]
    report summary <FILE>     event counts, drop accounting and metrics
        integrity
    report schemes <FILE>     per-scheme apply timeline (tried/applied,
        quota throttling, watermark windows) [--json]
    report profile <FILE>     per-phase span latency percentiles and the
        overhead cross-check
    schemes <workload>        run a workload under a scheme file
        (--schemes-file FILE | --scheme 'LINE') [--machine ...] [--seed N]
    trace <workload>          run with the telemetry collector and emit
        the event stream as JSONL (stdout, or --out FILE with a summary)
        [--config baseline|rec|prec|thp|ethp|prcl|damon_reclaim]
        [--ring N] [--epochs N] [--machine ...] [--seed N] [--out FILE]
        [--serve ADDR] [--publish-every N] [--linger]
    tune <workload>           auto-tune the prcl scheme's min_age
        [--range LO:HI] [--samples N] [--machine ...] [--seed N]
    fleet                     the serverless production scenario at
        scale: N worker processes under the sharded monitoring
        engine, with per-tenant aggregation
        [--processes N] [--epochs N] [--shard-size N] [--workers N]
        [--tenants N] [--footprint MIB] [--ring N]
        [--config baseline|rec|prec|thp|ethp|prcl|damon_reclaim]
        [--swap zram|file|none] [--min-age SECONDS]
        [--machine i3|m5d|z1d] [--seed N]
        [--serve ADDR] [--publish-every N] [--linger] [--profile-wall]

Every command is deterministic under a fixed --seed.
";

/// The lines of subcommand `sub`'s [`USAGE`] block (none for an unknown
/// one).
fn usage_block(sub: &str) -> impl Iterator<Item = &'static str> + '_ {
    let mut name = String::new();
    USAGE.lines().filter(move |line| {
        if let Some(header) = line.strip_prefix("    ").filter(|h| !h.starts_with(' ')) {
            let words = header.split("  ").next().unwrap_or_default().split(' ');
            name = words.take_while(|w| !w.starts_with('<')).collect::<Vec<_>>().join(" ");
        } else if !line.starts_with("        ") {
            name.clear();
        }
        name == sub
    })
}

/// The options subcommand `sub` takes: `(key, takes a value)` for every
/// `--key` its [`USAGE`] block names.
fn options(sub: &str) -> impl Iterator<Item = (&'static str, bool)> + '_ {
    usage_block(sub).flat_map(|line| {
        line.match_indices("--").map(move |(at, _)| {
            let rest = &line[at + 2..];
            let len = rest.find(|c: char| !(c.is_ascii_lowercase() || c == '-'));
            let key = &rest[..len.unwrap_or(rest.len())];
            (key, !rest[key.len()..].starts_with(']'))
        })
    })
}

impl Args {
    /// Parse the raw arguments of subcommand `sub` (`"fleet"`, `"report
    /// wss"`, …; without the program and subcommand names).
    pub fn parse<I: IntoIterator<Item = String>>(sub: &str, raw: I) -> Result<Args, DaosError> {
        let mut args = Args::default();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                args.positionals.push(a);
                continue;
            };
            match options(sub).find(|&(k, _)| k == key) {
                Some((_, true)) => {
                    let v = it
                        .next()
                        .ok_or_else(|| DaosError::usage(format!("option --{key} needs a value")))?;
                    args.options.insert(key.to_string(), v);
                }
                Some((_, false)) => args.flags.push(key.to_string()),
                None => {
                    let why = format!("daos {sub} takes no option --{key} (see daos --help)");
                    return Err(DaosError::usage(why));
                }
            }
        }
        Ok(args)
    }

    /// The `i`-th positional argument.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(|s| s.as_str())
    }

    /// A string option.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// A parsed numeric option with default.
    pub fn opt_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, DaosError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| DaosError::usage(format!("bad value for --{key}: '{v}'"))),
        }
    }

    /// A parsed numeric option that counts something, so `0` is a usage
    /// error naming it rather than an empty or degenerate run.
    pub fn opt_count<T>(&self, key: &str, default: T) -> Result<T, DaosError>
    where
        T: std::str::FromStr + Default + PartialEq,
    {
        let n = self.opt_num(key, default)?;
        if n == T::default() {
            return Err(DaosError::usage(format!("--{key} must be at least 1")));
        }
        Ok(n)
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The machine profile selected by `--machine` (default i3.metal).
    pub fn machine(&self) -> Result<daos_mm::MachineProfile, DaosError> {
        match self.opt("machine").unwrap_or("i3") {
            "i3" | "i3.metal" => Ok(daos_mm::MachineProfile::i3_metal()),
            "m5d" | "m5d.metal" => Ok(daos_mm::MachineProfile::m5d_metal()),
            "z1d" | "z1d.metal" => Ok(daos_mm::MachineProfile::z1d_metal()),
            other => Err(DaosError::usage(format!("unknown machine '{other}' (i3 | m5d | z1d)"))),
        }
    }

    /// The deterministic seed (`--seed`, default 42).
    pub fn seed(&self) -> Result<u64, DaosError> {
        self.opt_num("seed", 42)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_util::prop::{any_bool, fuzz_bytes, select};
    use daos_util::{prop_assert, prop_assert_eq, proptest};

    /// Every subcommand, as `main` names it to [`Args::parse`].
    const SUBCOMMANDS: [&str; 13] = [
        "list", "run", "top", "record", "report heatmap", "report wss", "report summary",
        "report schemes", "report profile", "schemes", "trace", "tune", "fleet",
    ];

    fn try_parse(sub: &str, s: &str) -> Result<Args, DaosError> {
        Args::parse(sub, s.split_whitespace().map(String::from))
    }

    fn parse(sub: &str, s: &str) -> Args {
        try_parse(sub, s).unwrap()
    }

    #[test]
    fn positionals_and_options() {
        let a = parse("record", "parsec3/freqmine --machine z1d --seed 7 --paddr");
        assert_eq!(a.pos(0), Some("parsec3/freqmine"));
        assert_eq!(a.pos(1), None);
        assert_eq!(a.opt("machine"), Some("z1d"));
        assert_eq!(a.seed().unwrap(), 7);
        assert!(a.flag("paddr"));
        assert!(!a.flag("vaddr"));
    }

    #[test]
    fn machine_selection() {
        assert_eq!(parse("run", "--machine m5d").machine().unwrap().name, "m5d.metal");
        assert_eq!(parse("run", "").machine().unwrap().name, "i3.metal");
        assert!(parse("run", "--machine quantum").machine().is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(try_parse("run", "--machine").is_err());
    }

    #[test]
    fn a_misspelt_option_is_a_usage_error_naming_it() {
        let err = try_parse("fleet", "--proceses 8 --epochs 2").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--proceses"), "{err}");
    }

    /// Each subcommand takes what its `USAGE` block names and nothing
    /// else: another subcommand's option is the same usage error as a
    /// misspelt one. Across the blocks, every option there is.
    #[test]
    fn a_subcommand_takes_only_the_options_its_usage_block_names() {
        let record: Vec<_> = options("record").collect();
        assert_eq!(record, [("machine", true), ("paddr", false), ("seed", true), ("out", true)]);
        assert_eq!(options("list").count() + options("report summary").count(), 0);
        for sub in SUBCOMMANDS {
            for (key, takes_value) in options(sub) {
                let line = if takes_value { format!("--{key} 1") } else { format!("--{key}") };
                assert!(try_parse(sub, &line).is_ok(), "daos {sub}'s USAGE names --{key}");
            }
        }
        for (sub, line, key) in [
            ("record", "parsec3/freqmine --config thp", "--config"),
            ("fleet", "--paddr", "--paddr"),
            ("tune", "parsec3/freqmine --epochs 5", "--epochs"),
            ("top", "parsec3/freqmine --serve 127.0.0.1:0", "--serve"),
            ("report summary", "t.jsonl --json", "--json"),
        ] {
            let err = try_parse(sub, line).unwrap_err();
            assert_eq!(err.exit_code(), 2, "daos {sub} {line}");
            assert!(err.to_string().contains(key), "daos {sub} {line}: {err}");
        }
        let mut keys: Vec<_> = SUBCOMMANDS.iter().flat_map(|sub| options(sub)).collect();
        keys.sort_unstable();
        keys.dedup();
        let flags = keys.iter().filter(|(_, takes_value)| !takes_value).count();
        assert_eq!((keys.len() - flags, flags), (23, 6), "{keys:?}");
    }

    #[test]
    fn numeric_defaults_and_errors() {
        let a = parse("report heatmap", "--rows 24");
        assert_eq!(a.opt_num("rows", 16usize).unwrap(), 24);
        assert_eq!(a.opt_num("cols", 72usize).unwrap(), 72);
        let bad = parse("report heatmap", "--rows many");
        assert!(bad.opt_num("rows", 16usize).is_err());
    }

    const ARG_SEEDS: &[&str] = &[
        "",
        "parsec3/freqmine --machine z1d --seed 7 --paddr --range 0:60 --samples 3",
        "fleet --processes 8 --epochs 2 --json --out /tmp/x",
    ];

    const ARG_TOKENS: &[&str] = &[
        "--", "--seed", "--machine", "--range", "--samples", "--paddr", "--json", "--proceses",
        " ", "\t", "\n", "=", "-", "42", "0:60", "i3", "parsec3/freqmine",
    ];

    // Whatever argv holds, for whichever subcommand — a real command
    // line, one with token soup and arbitrary bytes spliced in, or soup
    // alone — parsing and the typed accessors answer `Ok` or a usage
    // error, never panic, and `Args` holds no more bytes than it was given.
    proptest! {
        cases = 512;

        fn parse_survives_arbitrary_bytes(
            sub in select(SUBCOMMANDS.to_vec()),
            seed in select(ARG_SEEDS.to_vec()),
            noise in fuzz_bytes(ARG_TOKENS),
            at in 0usize..4096,
            intact in any_bool(),
        ) {
            let mut raw = seed.as_bytes().to_vec();
            if !intact {
                let at = at % (raw.len() + 1);
                raw.splice(at..at, noise);
            }
            let text = String::from_utf8_lossy(&raw);
            match Args::parse(sub, text.split(' ').map(String::from)) {
                Ok(a) => {
                    let held: usize = a.positionals.iter().chain(&a.flags).map(String::len).sum();
                    let opts: usize = a.options.iter().map(|(k, v)| k.len() + v.len()).sum();
                    prop_assert!(held + opts <= text.len());
                    for e in [a.seed().err(), a.machine().err(), a.opt_num("samples", 1u64).err()] {
                        prop_assert_eq!(e.map_or(2, |e| e.exit_code()), 2);
                    }
                }
                Err(e) => prop_assert_eq!(e.exit_code(), 2),
            }
        }
    }
}
