//! Minimal `--flag value` argument parsing (no external dependency).

use std::collections::HashMap;
use std::fmt;

/// Argument-parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line: one subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut iter = raw.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| ArgError("missing subcommand; try `setlearn help`".into()))?;
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        while let Some(tok) = iter.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("unexpected argument '{tok}'")))?
                .to_string();
            if key.is_empty() {
                return Err(ArgError("empty option name".into()));
            }
            match iter.next_if(|next| !next.starts_with("--")) {
                Some(value) => {
                    if options.insert(key.clone(), value).is_some() {
                        return Err(ArgError(format!("duplicate option --{key}")));
                    }
                }
                None => flags.push(key),
            }
        }
        Ok(Args { command, options, flags })
    }

    /// Required string option.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// Optional string option.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Optional typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| ArgError(format!("invalid value '{v}' for --{key}: {e}"))),
        }
    }

    /// Whether a bare `--flag` was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects any option or flag not in `allowed` with a usage message, so
    /// a typo like `--epoch 30` fails loudly instead of silently training
    /// with the default. Call once per subcommand with its full option list.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ArgError> {
        let mut unknown: Vec<&str> = self
            .options
            .keys()
            .map(String::as_str)
            .chain(self.flags.iter().map(String::as_str))
            .filter(|k| !allowed.contains(k))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        let mut usage: Vec<&str> = allowed.to_vec();
        usage.sort_unstable();
        Err(ArgError(format!(
            "unknown option{} for '{}': {}\nusage: setlearn {} [--{}]",
            if unknown.len() == 1 { "" } else { "s" },
            self.command,
            unknown.iter().map(|k| format!("--{k}")).collect::<Vec<_>>().join(", "),
            self.command,
            usage.join("] [--"),
        )))
    }

    /// Parses a comma-separated id list (`--query 1,2,3`).
    pub fn id_list(&self, key: &str) -> Result<Vec<u32>, ArgError> {
        let raw = self.required(key)?;
        raw.split(',')
            .map(|t| {
                t.trim()
                    .parse::<u32>()
                    .map_err(|_| ArgError(format!("invalid id '{t}' in --{key}")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["train", "--task", "cardinality", "--compressed", "--epochs", "30"])
            .unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.required("task").unwrap(), "cardinality");
        assert!(a.has_flag("compressed"));
        assert_eq!(a.get_or("epochs", 10usize).unwrap(), 30);
        assert_eq!(a.get_or("batch", 64usize).unwrap(), 64);
    }

    #[test]
    fn id_list_parses_and_rejects() {
        let a = parse(&["q", "--query", "3, 1,2"]).unwrap();
        assert_eq!(a.id_list("query").unwrap(), vec![3, 1, 2]);
        let bad = parse(&["q", "--query", "1,x"]).unwrap();
        assert!(bad.id_list("query").is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["cmd", "loose"]).is_err());
        assert!(parse(&["cmd", "--a", "1", "--a", "2"]).is_err());
        let a = parse(&["cmd"]).unwrap();
        assert!(a.required("missing").is_err());
    }

    #[test]
    fn reject_unknown_names_the_offender_and_prints_usage() {
        let a = parse(&["train", "--task", "cardinality", "--epoch", "30"]).unwrap();
        let err = a.reject_unknown(&["task", "epochs", "out"]).unwrap_err();
        assert!(err.0.contains("--epoch"), "got: {}", err.0);
        assert!(err.0.contains("usage: setlearn train"), "got: {}", err.0);
        assert!(err.0.contains("--epochs"), "usage lists valid options: {}", err.0);

        // Unknown bare flags are rejected too.
        let a = parse(&["train", "--verbose"]).unwrap();
        assert!(a.reject_unknown(&["task"]).is_err());

        // A fully valid line passes.
        let a = parse(&["train", "--task", "bloom", "--compressed"]).unwrap();
        assert!(a.reject_unknown(&["task", "compressed"]).is_ok());
    }

    #[test]
    fn trailing_flag_is_a_flag() {
        let a = parse(&["cmd", "--verbose"]).unwrap();
        assert!(a.has_flag("verbose"));
        assert_eq!(a.optional("verbose"), None);
    }
}
