//! The command-line parser the `fastdnaml` and `dnarates` programs share;
//! each keeps its own flag table and its own error prefix.

use std::collections::HashMap;
use std::str::FromStr;

/// What a flag is followed by on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// A switch.
    Nothing,
    /// A path, name, address or mode, checked where it is used.
    Text,
    /// An unsigned integer.
    Int,
    /// A decimal number.
    Real,
}

/// A parsed command line: the value flags by name, and the switches given.
pub type Args = (HashMap<String, String>, Vec<String>);

/// The command line as `(value flags, switches)`. Only what `table` lists
/// is accepted: a misspelt flag, a stray operand, a value flag without its
/// value and a number that does not parse are each an error naming the
/// offender, never a silently different run.
pub fn parse_args(
    argv: impl IntoIterator<Item = String>,
    table: &[(&str, Takes)],
) -> Result<Args, String> {
    let mut values = HashMap::new();
    let mut switches = Vec::new();
    let mut iter = argv.into_iter().peekable();
    while let Some(item) = iter.next() {
        let known = item
            .strip_prefix("--")
            .and_then(|key| table.iter().find(|(name, _)| *name == key));
        let Some(&(key, takes)) = known else {
            return Err(format!("unknown argument {item:?} (--help lists them)"));
        };
        if takes == Takes::Nothing {
            switches.push(key.to_string());
            continue;
        }
        let Some(value) = iter.next_if(|v| !v.starts_with("--")) else {
            return Err(format!("--{key} expects a value"));
        };
        let parses = match takes {
            Takes::Int => value.parse::<u64>().is_ok(),
            Takes::Real => value.parse::<f64>().is_ok(),
            _ => true,
        };
        if !parses {
            return Err(format!("--{key} {value}: not a number"));
        }
        values.insert(key.to_string(), value);
    }
    Ok((values, switches))
}

/// The value given for `key`, or `default` when the flag is absent.
pub fn get<T: FromStr>(values: &HashMap<String, String>, key: &str, default: T) -> T {
    values
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
