//! Minimal `--key value` argument parsing, and the declarations each
//! command's flags are written in once.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "argument error: {}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Why `oddci` printed no report, rendered for stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line was wrong (`argument error: …`); exit code 2.
    Usage(String),
    /// The command ran and failed its own check (`check failed: …`,
    /// `drill failed: …`); exit code 1.
    Failed(String),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError::Usage(e.to_string())
    }
}

/// One `--name` a command reads. Its name, help line and default are
/// written here and nowhere else: `run` rejects a name its command does
/// not declare, `oddci help` renders the declaration, and the
/// [`Parsed`] accessors fall back to its default.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The option name, without `--`.
    pub name: &'static str,
    /// The value placeholder (`N`, `PATH`, ...); empty for a bare flag.
    pub arg: &'static str,
    /// What the flag does, as help shows it.
    pub help: &'static str,
    /// The default as help shows it in brackets; empty for none. Its
    /// first word is the value an absent option takes, so a literal
    /// default lives only here; a derived one (`min(pnas,3)`) is only
    /// described here and computed by the handler.
    pub default: &'static str,
    /// Given bare after the command (`oddci trace small`): help shows
    /// `[arg]` and `run` rewrites it into `--name`.
    pub positional: bool,
}

impl Flag {
    /// A `--name ARG` option, or a bare `--name` when `arg` is empty.
    pub const fn new(
        name: &'static str,
        arg: &'static str,
        help: &'static str,
        default: &'static str,
    ) -> Flag {
        Flag {
            name,
            arg,
            help,
            default,
            positional: false,
        }
    }

    /// A positional argument, shown as `[arg]`.
    pub const fn positional(self) -> Flag {
        Flag {
            positional: true,
            ..self
        }
    }

    /// How help names the flag: `[arg]`, `--name` or `--name ARG`.
    pub fn spec(&self) -> String {
        match (self.positional, self.arg) {
            (true, arg) => format!("[{arg}]"),
            (false, "") => format!("--{}", self.name),
            (false, arg) => format!("--{} {arg}", self.name),
        }
    }

    /// The value an absent option takes: the default's first word.
    fn default_value(&self) -> &'static str {
        self.default.split(' ').next().unwrap_or("")
    }
}

/// The `--json` flag most commands take.
pub const JSON: Flag = Flag::new("json", "", "machine-readable output", "");

/// One subcommand: its name (`trace-convert` is typed `trace convert`),
/// its help text, every flag it reads, and the handler.
pub struct Command {
    /// The name `run` dispatches on.
    pub name: &'static str,
    /// The help text's description of the command.
    pub about: &'static str,
    /// Every `--name` the handler reads.
    pub flags: &'static [Flag],
    /// Runs the command; its output, or why there is none.
    pub run: fn(&Parsed) -> Result<String, CliError>,
}

/// A parsed command line: one subcommand plus `--key value` options and
/// bare `--flag`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Parsed {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Parsed, ArgError> {
        let mut it = argv.iter().peekable();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand".into()))?
            .clone();
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument `{arg}`")));
            };
            if key.is_empty() {
                return Err(ArgError("empty option name `--`".into()));
            }
            // A value follows unless the next token is another option or
            // the end (then it's a bare flag).
            match it.next_if(|next| !next.starts_with("--")) {
                Some(value) => {
                    if options.insert(key.to_string(), value.clone()).is_some() {
                        return Err(ArgError(format!("duplicate option `--{key}`")));
                    }
                }
                None => flags.push(key.to_string()),
            }
        }
        Ok(Parsed {
            command,
            options,
            flags,
        })
    }

    /// Every `--name` given, options and bare flags alike.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.options.keys().chain(&self.flags).map(String::as_str)
    }

    /// True when the bare flag was given.
    pub fn flag(&self, flag: &Flag) -> bool {
        self.flags.iter().any(|f| f == flag.name)
    }

    /// The raw string value, if given.
    pub fn get(&self, flag: &Flag) -> Option<&str> {
        self.options.get(flag.name).map(String::as_str)
    }

    /// The raw string value, or the declared default.
    pub fn text(&self, flag: &Flag) -> &str {
        self.get(flag).unwrap_or(flag.default_value())
    }

    /// A numeric option, or the declared default.
    pub fn num<T: FromStr>(&self, flag: &Flag) -> Result<T, ArgError> {
        match flag.default_value().parse() {
            Ok(default) => self.num_or(flag, default),
            Err(_) => panic!("`--{}` declares no numeric default", flag.name),
        }
    }

    /// A numeric option whose default the handler derives.
    pub fn num_or<T: FromStr>(&self, flag: &Flag, default: T) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("`--{}` expects a number, got `{raw}`", flag.name))),
        }
    }

    /// A numeric option that must be above zero.
    pub fn positive<T: FromStr + PartialOrd + Default>(&self, flag: &Flag) -> Result<T, ArgError> {
        let value = self.num(flag)?;
        if value > T::default() {
            Ok(value)
        } else {
            Err(ArgError(format!("--{} must be positive", flag.name)))
        }
    }

    /// An instance size within `1..=max`, where `max` is `bound`'s value.
    pub fn within(
        &self,
        flag: &Flag,
        default: u64,
        bound: &Flag,
        max: u64,
    ) -> Result<u64, ArgError> {
        let value = self.num_or(flag, default)?;
        if (1..=max).contains(&value) {
            Ok(value)
        } else {
            Err(ArgError(format!(
                "--{} must be within 1..=--{} ({max}), got {value}",
                flag.name, bound.name
            )))
        }
    }

    /// An `A:B` pair option (used for `--churn ON:OFF`).
    pub fn pair(&self, flag: &Flag) -> Result<Option<(u64, u64)>, ArgError> {
        let name = flag.name;
        let Some(raw) = self.get(flag) else {
            return Ok(None);
        };
        let (a, b) = raw
            .split_once(':')
            .ok_or_else(|| ArgError(format!("`--{name}` expects A:B, got `{raw}`")))?;
        let parse = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| ArgError(format!("`--{name}`: `{s}` is not a number")))
        };
        Ok(Some((parse(a)?, parse(b)?)))
    }

    /// A `HOST:PORT` option; required unless its default is an address.
    pub fn addr(&self, flag: &Flag) -> Result<std::net::SocketAddr, ArgError> {
        let name = flag.name;
        match self.get(flag) {
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("`--{name}` expects HOST:PORT, got `{raw}`"))),
            None => flag.default_value().parse().map_err(|_| {
                ArgError(format!(
                    "`--{name} HOST:PORT` is required (e.g. --{name} 127.0.0.1:7800)"
                ))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::argv;

    const NODES: Flag = Flag::new("nodes", "N", "nodes", "100");
    const SEED: Flag = Flag::new("seed", "S", "seed", "0");
    const BETA: Flag = Flag::new("beta-mbps", "B", "spare capacity", "1");
    const CHURN: Flag = Flag::new("churn", "ON:OFF", "churn", "off");
    const LISTEN: Flag = Flag::new("listen", "ADDR", "bind address", "127.0.0.1:0");
    const CONNECT: Flag = Flag::new("connect", "ADDR", "headend", "required");

    #[test]
    fn parses_command_options_and_flags() {
        let p = Parsed::parse(&argv(&[
            "simulate", "--nodes", "100", "--json", "--seed", "7",
        ]))
        .unwrap();
        assert_eq!(p.command, "simulate");
        assert_eq!(p.get(&NODES), Some("100"));
        assert_eq!(p.num::<u64>(&SEED).unwrap(), 7);
        assert!(p.flag(&JSON));
        assert!(!p.flag(&Flag::new("quiet", "", "", "")));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = Parsed::parse(&argv(&["wakeup"])).unwrap();
        assert_eq!(p.num::<u64>(&NODES).unwrap(), 100);
        assert_eq!(p.num::<f64>(&BETA).unwrap(), 1.0);
        assert_eq!(p.num_or::<u64>(&CHURN, 3).unwrap(), 3);
        assert_eq!(p.text(&CHURN), "off");
        assert_eq!(p.addr(&LISTEN).unwrap().to_string(), "127.0.0.1:0");
        assert!(p.addr(&CONNECT).unwrap_err().0.contains("is required"));
    }

    #[test]
    fn rejects_bad_numbers_and_positionals() {
        let p = Parsed::parse(&argv(&["x", "--nodes", "abc"])).unwrap();
        assert!(p.num::<u64>(&NODES).is_err());
        assert!(Parsed::parse(&argv(&["x", "stray"])).is_err());
        assert!(Parsed::parse(&argv(&["x", "--a", "1", "--a", "2"])).is_err());
        assert!(Parsed::parse(&[]).is_err());
    }

    #[test]
    fn range_checks_name_the_flag() {
        let p = Parsed::parse(&argv(&["x", "--seed", "0", "--beta-mbps", "-1"])).unwrap();
        assert_eq!(
            p.positive::<u64>(&SEED).unwrap_err().0,
            "--seed must be positive"
        );
        assert!(p.positive::<f64>(&BETA).is_err());
        let err = p.within(&SEED, 1, &NODES, 4).unwrap_err().0;
        assert_eq!(err, "--seed must be within 1..=--nodes (4), got 0");
        assert_eq!(p.within(&NODES, 4, &NODES, 4).unwrap(), 4);
    }

    #[test]
    fn pair_parsing() {
        let p = Parsed::parse(&argv(&["simulate", "--churn", "60:20"])).unwrap();
        assert_eq!(p.pair(&CHURN).unwrap(), Some((60, 20)));
        assert_eq!(p.pair(&NODES).unwrap(), None);
        let bad = Parsed::parse(&argv(&["simulate", "--churn", "60"])).unwrap();
        assert!(bad.pair(&CHURN).is_err());
    }

    #[test]
    fn trailing_flag_is_a_flag() {
        let p = Parsed::parse(&argv(&["simulate", "--json"])).unwrap();
        assert!(p.flag(&JSON));
    }
}
