//! Minimal `--key value` argument parsing.

use std::collections::BTreeMap;
use std::fmt;

/// Parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "argument error: {}", self.0)
    }
}

impl std::error::Error for ArgError {}

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
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = it.next().expect("peeked").clone();
                    if options.insert(key.to_string(), value).is_some() {
                        return Err(ArgError(format!("duplicate option `--{key}`")));
                    }
                }
                _ => flags.push(key.to_string()),
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

    /// True when `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The raw string value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A numeric option with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("`--{name}` expects a number, got `{raw}`"))),
        }
    }

    /// An `A:B` pair option (used for `--churn ON:OFF`).
    pub fn pair(&self, name: &str) -> Result<Option<(u64, u64)>, ArgError> {
        let Some(raw) = self.options.get(name) else {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let p = Parsed::parse(&argv(&[
            "simulate", "--nodes", "100", "--json", "--seed", "7",
        ]))
        .unwrap();
        assert_eq!(p.command, "simulate");
        assert_eq!(p.get("nodes"), Some("100"));
        assert_eq!(p.num::<u64>("seed", 0).unwrap(), 7);
        assert!(p.flag("json"));
        assert!(!p.flag("quiet"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = Parsed::parse(&argv(&["wakeup"])).unwrap();
        assert_eq!(p.num::<u64>("image-mb", 8).unwrap(), 8);
        assert_eq!(p.num::<f64>("beta-mbps", 1.0).unwrap(), 1.0);
    }

    #[test]
    fn rejects_bad_numbers_and_positionals() {
        let p = Parsed::parse(&argv(&["x", "--n", "abc"])).unwrap();
        assert!(p.num::<u64>("n", 0).is_err());
        assert!(Parsed::parse(&argv(&["x", "stray"])).is_err());
        assert!(Parsed::parse(&argv(&["x", "--a", "1", "--a", "2"])).is_err());
        assert!(Parsed::parse(&[]).is_err());
    }

    #[test]
    fn pair_parsing() {
        let p = Parsed::parse(&argv(&["simulate", "--churn", "60:20"])).unwrap();
        assert_eq!(p.pair("churn").unwrap(), Some((60, 20)));
        assert_eq!(p.pair("absent").unwrap(), None);
        let bad = Parsed::parse(&argv(&["simulate", "--churn", "60"])).unwrap();
        assert!(bad.pair("churn").is_err());
    }

    #[test]
    fn trailing_flag_is_a_flag() {
        let p = Parsed::parse(&argv(&["simulate", "--json"])).unwrap();
        assert!(p.flag("json"));
    }
}
