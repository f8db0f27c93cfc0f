//! Strict shared command-line parsing for the bench binaries.
//!
//! Both binaries in this crate (`regen`, `metrics_check`) follow the
//! same conventions: options may be spelled `--flag value` or
//! `--flag=value`, anything else that starts with `-` is rejected as an
//! unknown option (never treated as a positional), and usage errors exit
//! 2. This module holds the one copy of that tokenization so the
//! binaries cannot drift apart in what they accept.
//!
//! Helpers return `Result<_, String>` instead of exiting so each binary
//! routes messages through its own `usage_error` (which appends that
//! binary's usage text and sets the exit status).

/// One parsed command-line token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An option (`-h`, `--flag`, `--flag=value`). Any inline `=value`
    /// is split off; claim it with [`take_value`] and friends, or reject
    /// it with [`reject_value`] for options that take none.
    Opt {
        /// The flag spelling up to the first `=` (e.g. `--iters`).
        flag: String,
        /// The value after `=`, for `--flag=value` spellings.
        inline: Option<String>,
    },
    /// A bare operand (experiment id, file path, ...).
    Positional(String),
}

/// Streaming tokenizer over `std::env::args().skip(1)`-style argv.
#[derive(Debug)]
pub struct ArgStream {
    argv: std::vec::IntoIter<String>,
}

impl ArgStream {
    /// Wraps raw arguments (without the program name).
    pub fn new(argv: impl IntoIterator<Item = String>) -> Self {
        Self {
            argv: argv.into_iter().collect::<Vec<_>>().into_iter(),
        }
    }

    /// Returns the next token, splitting `--flag=value` spellings. Only
    /// `--`-prefixed arguments split on `=`, so a stray `-x=3` stays one
    /// (unknown) option, matching the historical behavior.
    pub fn next_token(&mut self) -> Option<Token> {
        let arg = self.argv.next()?;
        Some(match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => Token::Opt {
                flag: f.to_string(),
                inline: Some(v.to_string()),
            },
            _ if arg.starts_with('-') => Token::Opt {
                flag: arg,
                inline: None,
            },
            _ => Token::Positional(arg),
        })
    }

    fn next_raw(&mut self) -> Option<String> {
        self.argv.next()
    }
}

/// Reconstructs the raw spelling of an option for error messages.
pub fn raw_opt(flag: &str, inline: Option<&str>) -> String {
    match inline {
        Some(v) => format!("{flag}={v}"),
        None => flag.to_string(),
    }
}

/// The standard rejection message for an unrecognized option.
pub fn unknown_opt(flag: &str, inline: Option<&str>) -> String {
    format!("unknown option `{}`", raw_opt(flag, inline))
}

/// Claims the option's value: the inline `=value` if present, otherwise
/// the next raw argument.
pub fn take_value(
    flag: &str,
    inline: Option<String>,
    args: &mut ArgStream,
) -> Result<String, String> {
    inline
        .or_else(|| args.next_raw())
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// [`take_value`] parsed as a non-negative integer count.
pub fn take_count(
    flag: &str,
    inline: Option<String>,
    args: &mut ArgStream,
) -> Result<usize, String> {
    let v = take_value(flag, inline, args)?;
    v.parse::<usize>()
        .map_err(|_| format!("{flag}: `{v}` is not a count"))
}

/// Rejects `--flag=value` spellings for options that take no value.
pub fn reject_value(flag: &str, inline: Option<String>) -> Result<(), String> {
    match inline {
        Some(v) => Err(format!("{flag} takes no value (got `{v}`)")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(argv: &[&str]) -> Vec<Token> {
        let mut args = ArgStream::new(argv.iter().map(|s| s.to_string()));
        let mut out = Vec::new();
        while let Some(t) = args.next_token() {
            out.push(t);
        }
        out
    }

    fn opt(flag: &str, inline: Option<&str>) -> Token {
        Token::Opt {
            flag: flag.to_string(),
            inline: inline.map(|s| s.to_string()),
        }
    }

    #[test]
    fn tokenizes_flags_positionals_and_inline_values() {
        assert_eq!(
            tokens(&["e1", "--threads", "3", "--metrics=x.json", "-h"]),
            vec![
                Token::Positional("e1".to_string()),
                opt("--threads", None),
                Token::Positional("3".to_string()),
                opt("--metrics", Some("x.json")),
                opt("-h", None),
            ]
        );
    }

    #[test]
    fn single_dash_never_splits_on_equals() {
        // `-x=3` is one unknown option, not `-x` with a value.
        assert_eq!(tokens(&["-x=3"]), vec![opt("-x=3", None)]);
        // ...and a positional containing `=` stays positional.
        assert_eq!(tokens(&["k=v"]), vec![Token::Positional("k=v".to_string())]);
    }

    #[test]
    fn take_value_prefers_inline_then_next_arg() {
        let mut args = ArgStream::new(["next".to_string()]);
        assert_eq!(
            take_value("--metrics", Some("inline".to_string()), &mut args),
            Ok("inline".to_string())
        );
        // Inline did not consume the stream.
        assert_eq!(
            take_value("--metrics", None, &mut args),
            Ok("next".to_string())
        );
        let err = take_value("--metrics", None, &mut args).unwrap_err();
        assert_eq!(err, "--metrics needs a value");
    }

    #[test]
    fn take_count_rejects_non_numbers() {
        let mut args = ArgStream::new([]);
        assert_eq!(
            take_count("--threads", Some("5".to_string()), &mut args),
            Ok(5)
        );
        let err = take_count("--threads", Some("five".to_string()), &mut args).unwrap_err();
        assert_eq!(err, "--threads: `five` is not a count");
    }

    #[test]
    fn reject_value_only_fires_on_inline() {
        assert_eq!(reject_value("--no-cache", None), Ok(()));
        let err = reject_value("--no-cache", Some("x".to_string())).unwrap_err();
        assert_eq!(err, "--no-cache takes no value (got `x`)");
    }

    #[test]
    fn unknown_opt_reconstructs_raw_spelling() {
        assert_eq!(unknown_opt("--bogus", None), "unknown option `--bogus`");
        assert_eq!(
            unknown_opt("--bogus", Some("3")),
            "unknown option `--bogus=3`"
        );
    }
}
