//! The command-line parser the `fastdnaml` and `dnarates` programs share.
//! Each program declares every flag once, in its [`Program`] table: what
//! the flag takes, its lower bound, the modes that read it and its help
//! line. Parsing, `--help`, bounds and refusals all come from that table.

use std::collections::HashMap;
use std::str::FromStr;

/// What a flag is followed by on the command line; the `&str` is the
/// operand's name in `--help`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// A switch.
    Nothing,
    /// A path, name or address, checked where it is used.
    Text(&'static str),
    /// One of the listed words.
    OneOf(&'static [&'static str]),
    /// An unsigned integer no smaller than the bound.
    Int(&'static str, u64),
    /// A finite decimal number above 0.
    Real(&'static str),
}

/// A set of modes, one bit each. A search is two bits: its deployment and
/// its shape.
pub type Modes = u16;

/// `--serve`: the job daemon.
pub const SERVE: Modes = 1;
/// `--status JOB`.
pub const STATUS: Modes = 1 << 1;
/// `--attach JOB`.
pub const ATTACH: Modes = 1 << 2;
/// `--net worker`: a peer of a coordinator or daemon.
pub const WORKER: Modes = 1 << 3;
/// `--submit`: a job for the daemon.
pub const SUBMIT: Modes = 1 << 4;
/// `--user-trees FILE`: score given trees, no search.
pub const USER_TREES: Modes = 1 << 5;
/// `--bootstrap N`.
pub const BOOTSTRAP: Modes = 1 << 6;
/// A search deployed in this process alone.
pub const SERIAL: Modes = 1 << 7;
/// A search over `--parallel` threads.
pub const PARALLEL: Modes = 1 << 8;
/// A search over `--net coordinator` (peers dial in).
pub const COORDINATOR: Modes = 1 << 9;
/// A search over `--net spawn` (the coordinator forks its peers).
pub const SPAWN: Modes = 1 << 10;
/// A search of one jumble.
pub const ONE: Modes = 1 << 11;
/// A farm of `--jumbles N` jumbles.
pub const FARM: Modes = 1 << 12;
/// A search, in any deployment and either shape.
pub const SEARCH: Modes = SERIAL | PARALLEL | COORDINATOR | SPAWN | ONE | FARM;
/// Every mode: the global flags.
pub const ALL: Modes = Modes::MAX;

/// The mode of one command line: its bits, each with the name a refusal
/// gives it (a search lists its deployment, then its shape).
pub type Mode = Vec<(Modes, &'static str)>;

/// One row of a flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name, without its `--`.
    pub name: &'static str,
    /// What follows it.
    pub takes: Takes,
    /// The modes that read it; any other mode refuses it.
    pub modes: Modes,
    /// Its `--help` line, with the default.
    pub help: &'static str,
}

/// A table row.
pub const fn flag(name: &'static str, takes: Takes, modes: Modes, help: &'static str) -> Flag {
    Flag {
        name,
        takes,
        modes,
        help,
    }
}

/// A program's command line: its synopsis, its flag table, and which
/// mode a parsed command line runs in (or why it runs in none).
pub struct Program {
    /// The first line of `--help`.
    pub synopsis: &'static str,
    /// Every flag the program understands, in `--help`'s order.
    pub flags: &'static [Flag],
    /// The mode the given flags select.
    pub mode: fn(&Args) -> Result<Mode, String>,
}

/// A parsed command line: the value flags by name, and the switches given.
pub type Args = (HashMap<String, String>, Vec<String>);

/// The command line as `(value flags, switches)`. Only what the table
/// lists is accepted: a misspelt flag, a stray operand, a value flag
/// without its value and a number that does not parse are each an error
/// naming the offender. Unless `--help` is given, a flag the command
/// line's mode does not read, a number below its bound and a ratio that is
/// not a finite number above 0 are refused too, before any file is read.
pub fn parse_args(
    argv: impl IntoIterator<Item = String>,
    program: &Program,
) -> Result<Args, String> {
    let mut values = HashMap::new();
    let mut switches = Vec::new();
    let mut iter = argv.into_iter().peekable();
    while let Some(item) = iter.next() {
        let known = item
            .strip_prefix("--")
            .and_then(|key| program.flags.iter().find(|flag| flag.name == key));
        let Some(&Flag { name, takes, .. }) = known else {
            return Err(format!("unknown argument {item:?} (--help lists them)"));
        };
        if takes == Takes::Nothing {
            switches.push(name.to_string());
            continue;
        }
        let Some(value) = iter.next_if(|v| !v.starts_with("--")) else {
            return Err(format!("--{name} expects a value"));
        };
        let parses = match takes {
            Takes::Int(..) => value.parse::<u64>().is_ok(),
            Takes::Real(_) => value.parse::<f64>().is_ok(),
            _ => true,
        };
        if !parses {
            return Err(format!("--{name} {value}: not a number"));
        }
        if let Takes::OneOf(words) = takes {
            if !words.contains(&value.as_str()) {
                return Err(format!("--{name} {value}: expected {}", words.join(" | ")));
            }
        }
        values.insert(name.to_string(), value);
    }
    let args = (values, switches);
    if args.1.iter().any(|s| s == "help") {
        return Ok(args);
    }
    let mode = (program.mode)(&args)?;
    let given =
        |flag: &&Flag| args.0.contains_key(flag.name) || args.1.iter().any(|s| s == flag.name);
    for flag in program.flags.iter().filter(given) {
        if let Some((_, name)) = mode.iter().find(|(bit, _)| flag.modes & bit == 0) {
            return Err(format!("{name} does not read --{}", flag.name));
        }
        let value = args.0.get(flag.name).map_or("", String::as_str);
        match flag.takes {
            Takes::Int(_, least) if value.parse::<u64>().is_ok_and(|v| v < least) => {
                let name = mode[0].1;
                return Err(format!(
                    "--{} {value}: {name} needs at least {least}",
                    flag.name
                ));
            }
            Takes::Real(_) if !value.parse::<f64>().is_ok_and(|v| v.is_finite() && v > 0.0) => {
                return Err(format!(
                    "--{} {value}: must be a finite number above 0",
                    flag.name
                ));
            }
            _ => {}
        }
    }
    Ok(args)
}

/// `--help`: the synopsis, then every flag with its help line, under a
/// heading that names the modes reading it (none over the global flags).
pub fn help(program: &Program) -> String {
    let mut text = format!("{}\n", program.synopsis);
    let mut heading = None;
    for flag in program.flags {
        if heading != Some(flag.modes) {
            heading = Some(flag.modes);
            text += "\n";
            if flag.modes != ALL {
                text += &format!("Read by {}:\n", mode_names(flag.modes));
            }
        }
        let operand = match flag.takes {
            Takes::Nothing => String::new(),
            Takes::Text(word) | Takes::Int(word, _) | Takes::Real(word) => format!(" {word}"),
            Takes::OneOf(words) => format!(" {}", words.join("|")),
        };
        let head = format!("--{}{operand}", flag.name);
        // A head too long for its column puts the help on a line of its own.
        let gap = match head.len() {
            0..24 => String::new(),
            _ => format!("\n{:26}", ""),
        };
        text += &format!("  {head:<24}{gap} {}\n", flag.help);
    }
    text
}

/// `modes` in words: a search with its deployments and shape, then the
/// other modes by their flags.
fn mode_names(modes: Modes) -> String {
    let named = |pairs: &[(Modes, &'static str)]| -> Vec<&'static str> {
        let names = pairs.iter().filter(|(bit, _)| modes & bit != 0);
        names.map(|&(_, name)| name).collect()
    };
    let deployments = [
        (SERIAL, "serial"),
        (PARALLEL, "--parallel"),
        (COORDINATOR, "--net coordinator"),
        (SPAWN, "--net spawn"),
    ];
    let (deployed, shapes) = (
        named(&deployments),
        named(&[(ONE, "one jumble"), (FARM, "a farm")]),
    );
    let mut words = Vec::new();
    if !deployed.is_empty() && !shapes.is_empty() {
        let mut limits = Vec::new();
        if deployed.len() < deployments.len() {
            limits.push(deployed.join(", "));
        }
        if shapes.len() == 1 {
            limits.push(shapes[0].to_string());
        }
        words.push(if limits.is_empty() {
            "a search".to_string()
        } else {
            format!("a search ({})", limits.join("; "))
        });
    }
    let others = [
        (SUBMIT, "--submit"),
        (USER_TREES, "--user-trees"),
        (BOOTSTRAP, "--bootstrap"),
        (SERVE, "--serve"),
        (STATUS, "--status"),
        (ATTACH, "--attach"),
        (WORKER, "--net worker"),
    ];
    words.extend(named(&others).into_iter().map(String::from));
    words.join(", ")
}

/// The value given for `key`, or `default` when the flag is absent.
pub fn get<T: FromStr>(values: &HashMap<String, String>, key: &str, default: T) -> T {
    values
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
