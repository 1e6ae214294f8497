//! Minimal flag parsing — `--key value` pairs plus positionals, no
//! external dependencies.

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// Parsed command-line: positional arguments and `--key value` flags.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses raw arguments (everything after the subcommand name). A
    /// `--flag` followed by another `--flag` (or nothing) is a bare
    /// boolean switch, stored with an empty value and queried via
    /// [`Args::flag_set`]; value-taking flags that are left bare fail
    /// later when their value is parsed.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            i += 1;
            if let Some(key) = arg.strip_prefix("--") {
                let value = match raw.get(i) {
                    Some(next) if !next.starts_with("--") => {
                        i += 1;
                        next.clone()
                    }
                    _ => String::new(),
                };
                if out.flags.insert(key.to_string(), value).is_some() {
                    return Err(format!("duplicate flag --{key}"));
                }
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument.
    pub fn pos(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing argument: {what}"))
    }

    /// Number of positional arguments.
    pub fn pos_len(&self) -> usize {
        self.positional.len()
    }

    /// A required flag value.
    pub fn flag(&self, key: &str) -> Result<&str, String> {
        self.flag_opt(key)
            .ok_or_else(|| format!("missing flag: --{key}"))
    }

    /// An optional flag value.
    pub fn flag_opt(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// True when the flag was given at all (with or without a value).
    pub fn flag_set(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// A required flag parsed as `T`; `bad --key: …` when malformed.
    pub fn require<T: FromStr<Err: Display>>(&self, key: &str) -> Result<T, String> {
        let value = self.flag(key)?;
        value.parse().map_err(|e| format!("bad --{key}: {e}"))
    }

    /// An optional flag parsed as `T`: `None` when absent.
    pub fn get<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Option<T>, String> {
        self.flag_opt(key).map(|_| self.require(key)).transpose()
    }

    /// [`get`](Args::get) with a default for an absent flag.
    pub fn get_or<T: FromStr<Err: Display>>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// The (alphabetically first) flag given that is neither in the
    /// space-separated list `allowed` nor the global `--metrics-out`.
    pub fn unknown_flag(&self, allowed: &str) -> Option<&str> {
        let known = |k: &str| k == "metrics-out" || allowed.split_whitespace().any(|a| a == k);
        let given = self.flags.keys().map(|k| k.as_str());
        given.filter(|k| !known(k)).min()
    }
}

/// Parses `a,b,c` into integers.
pub fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| format!("not a number: {p}"))
        })
        .collect()
}

/// Parses `a,b,c` into `u32`s.
pub fn parse_list_u32(s: &str) -> Result<Vec<u32>, String> {
    parse_list(s).map(|v| v.into_iter().map(|x| x as u32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(&raw(&["store.ws", "--levels", "3,3", "--axis", "1"])).unwrap();
        assert_eq!(a.pos(0, "store").unwrap(), "store.ws");
        assert_eq!(a.flag("levels").unwrap(), "3,3");
        assert_eq!(a.flag_opt("missing"), None);
        assert_eq!(a.pos_len(), 1);
    }

    #[test]
    fn bare_flags_are_boolean_switches_and_duplicates_rejected() {
        let a = Args::parse(&raw(&["--writable", "--port", "0"])).unwrap();
        assert!(a.flag_set("writable"));
        assert_eq!(a.flag_opt("writable"), Some(""));
        assert_eq!(a.flag_opt("port"), Some("0"));
        assert!(!a.flag_set("absent"));
        // A value-taking flag left bare fails when its value is used.
        let a = Args::parse(&raw(&["--k"])).unwrap();
        assert_eq!(a.flag("k").unwrap(), "");
        assert!(Args::parse(&raw(&["--k", "1", "--k", "2"])).is_err());
    }

    #[test]
    fn typed_accessors_parse_default_and_name_the_flag() {
        let a = Args::parse(&raw(&["--k", "8", "--rate", "x", "--metrics-out", "m"])).unwrap();
        assert_eq!(a.get::<usize>("k"), Ok(Some(8)));
        assert_eq!(a.get::<usize>("absent"), Ok(None));
        assert_eq!(a.get_or("absent", 64usize), Ok(64));
        assert_eq!(a.require::<usize>("k"), Ok(8));
        assert_eq!(
            a.require::<usize>("absent"),
            Err("missing flag: --absent".into())
        );
        let err = a.get::<f64>("rate").unwrap_err();
        assert!(err.starts_with("bad --rate: "), "{err}");
        assert_eq!(a.unknown_flag("k rate"), None);
        assert_eq!(a.unknown_flag("k"), Some("rate"));
        assert_eq!(a.unknown_flag(""), Some("k"));
    }

    #[test]
    fn list_parsing() {
        assert_eq!(parse_list("1, 2,3").unwrap(), vec![1, 2, 3]);
        assert!(parse_list("1,x").is_err());
        assert_eq!(parse_list_u32("4,5").unwrap(), vec![4u32, 5]);
    }
}
