//! Minimal hand-rolled argument parsing: `--key value` flags and
//! positional arguments, with typed accessors and helpful errors. No
//! external dependency; the option surface is small and fixed.

use std::collections::HashMap;
use tnet_exec::{Exec, Threads};

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` options.
#[derive(Debug, Default)]
pub struct Args {
    pub command: String,
    pub positional: Vec<String>,
    options: HashMap<String, String>,
}

/// A parse or validation failure, rendered to the user as-is.
#[derive(Debug, PartialEq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let mut it = argv.iter();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand; try `tnet help`".into()))?
            .clone();
        let mut args = Args {
            command,
            ..Default::default()
        };
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                // `--trace` is a valueless switch: it never consumes the
                // next token, so `tnet mine --trace --support 5` parses
                // naturally (everything else stays `--key value`).
                let value = if key == "trace" {
                    "true".to_string()
                } else {
                    it.next()
                        .ok_or_else(|| ArgError(format!("--{key} needs a value")))?
                        .clone()
                };
                if args
                    .options
                    .insert(key.to_string(), value.clone())
                    .is_some()
                {
                    return Err(ArgError(format!("--{key} given twice")));
                }
            } else {
                args.positional.push(tok.clone());
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Typed option with a default.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse '{v}'"))),
        }
    }

    /// Boolean option with a default. Only `true` and `false` are
    /// accepted; anything else is a usage error rather than a silent
    /// `false`.
    pub fn get_bool(&self, key: &str, default: bool) -> Result<bool, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(v) => Err(ArgError(format!(
                "--{key}: expected true or false, got '{v}'"
            ))),
        }
    }

    /// Required typed option.
    #[allow(dead_code)] // part of the parsing API; commands currently use defaults
    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let v = self
            .get(key)
            .ok_or_else(|| ArgError(format!("--{key} is required")))?;
        v.parse()
            .map_err(|_| ArgError(format!("--{key}: cannot parse '{v}'")))
    }

    /// Builds the execution pool from `--threads` (falling back to
    /// `TNET_THREADS`, then hardware parallelism).
    pub fn exec(&self) -> Result<Exec, ArgError> {
        match self.get("threads") {
            None => Ok(Exec::from_threads(Threads::auto())),
            Some(v) => {
                let n: usize = v
                    .parse()
                    .map_err(|_| ArgError(format!("--threads: cannot parse '{v}'")))?;
                if n == 0 {
                    return Err(ArgError("--threads must be at least 1".into()));
                }
                Ok(Exec::from_threads(Threads::exact(n)))
            }
        }
    }

    /// Rejects unknown options (call after reading the known set).
    pub fn ensure_known(&self, known: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys() {
            if !known.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown option --{key} for `{}` (known: {})",
                    self.command,
                    known.join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_options_positionals() {
        let a = Args::parse(&argv("mine data.csv --support 5 --strategy bf")).unwrap();
        assert_eq!(a.command, "mine");
        assert_eq!(a.positional, vec!["data.csv"]);
        assert_eq!(a.get("support"), Some("5"));
        assert_eq!(a.get_or("strategy", "df"), "bf");
        assert_eq!(a.get_parsed_or("support", 1usize).unwrap(), 5);
        assert_eq!(a.get_parsed_or("partitions", 8usize).unwrap(), 8);
    }

    #[test]
    fn trace_is_a_valueless_switch() {
        let a = Args::parse(&argv("mine --trace --support 5")).unwrap();
        assert_eq!(a.get("trace"), Some("true"));
        assert_eq!(a.get("support"), Some("5"));
        let a = Args::parse(&argv("report --trace")).unwrap();
        assert_eq!(a.get("trace"), Some("true"));
    }

    #[test]
    fn missing_subcommand() {
        assert!(Args::parse(&[]).is_err());
    }

    #[test]
    fn missing_value() {
        let e = Args::parse(&argv("gen --scale")).unwrap_err();
        assert!(e.0.contains("needs a value"));
    }

    #[test]
    fn duplicate_option() {
        let e = Args::parse(&argv("gen --scale 0.1 --scale 0.2")).unwrap_err();
        assert!(e.0.contains("twice"));
    }

    #[test]
    fn bad_parse_and_required() {
        let a = Args::parse(&argv("gen --scale abc")).unwrap();
        assert!(a.get_parsed_or("scale", 1.0f64).is_err());
        assert!(a.require_parsed::<f64>("seed").is_err());
    }

    #[test]
    fn bool_option_accepts_only_true_or_false() {
        let a = Args::parse(&argv("mine --maximal true --verbose false")).unwrap();
        assert_eq!(a.get_bool("maximal", false), Ok(true));
        assert_eq!(a.get_bool("verbose", true), Ok(false));
        assert_eq!(a.get_bool("flow", true), Ok(true));
        for bad in ["yes", "1", "TRUE", "no", ""] {
            let a = Args::parse(&["mine".into(), "--maximal".into(), bad.into()]).unwrap();
            let e = a.get_bool("maximal", false).unwrap_err();
            assert!(
                e.0.contains("--maximal") && e.0.contains("true or false"),
                "{e}"
            );
        }
    }

    #[test]
    fn threads_option_builds_pool() {
        let a = Args::parse(&argv("mine --threads 3")).unwrap();
        assert_eq!(a.exec().unwrap().threads(), 3);
        let a = Args::parse(&argv("mine --threads 0")).unwrap();
        assert!(a.exec().is_err());
        let a = Args::parse(&argv("mine --threads lots")).unwrap();
        assert!(a.exec().is_err());
    }

    #[test]
    fn unknown_option_rejected() {
        let a = Args::parse(&argv("gen --bogus 1")).unwrap();
        assert!(a.ensure_known(&["scale", "seed"]).is_err());
        let a = Args::parse(&argv("gen --scale 1")).unwrap();
        assert!(a.ensure_known(&["scale", "seed"]).is_ok());
    }
}
