//! Strict command-line parsing for the experiment binaries.
//!
//! Every token must be a known flag: a value flag followed by its value, or
//! a switch. A positional token, an unknown flag, a flag missing its value,
//! a flag given twice, an unparsable number and an unknown name are usage
//! errors: [`parse_or_exit`] prints the message and the binary's usage text
//! and exits with code 2, before the binary does any work.

use std::str::FromStr;

/// A command line whose every token is a known flag.
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Parse `args` (without the program name). Each of `value_flags` takes
    /// the following token as its value; each of `switches` stands alone.
    pub fn parse(
        args: &[String],
        value_flags: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let known = |flags: &[&'static str]| flags.iter().copied().find(|f| f == arg);
            let (flag, value) = if let Some(flag) = known(switches) {
                (flag, None)
            } else if let Some(flag) = known(value_flags) {
                (flag, Some(iter.next().ok_or_else(|| format!("{flag} is missing its value"))?))
            } else {
                return Err(format!("unrecognised argument `{arg}`"));
            };
            if parsed.has(flag) {
                return Err(format!("flag {flag} given twice"));
            }
            match value {
                Some(value) => parsed.values.push((flag, value.clone())),
                None => parsed.switches.push(flag),
            }
        }
        Ok(parsed)
    }

    /// Was `flag` given, as a switch or with a value?
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag) || self.value(flag).is_some()
    }

    /// The value of `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    /// The value of `flag` parsed as a `T`, or `default` if it was not given.
    pub fn number<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.value(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("invalid value for {flag}: `{v}`"))
        })
    }

    /// The value of `flag`, which must be one of `names`, or `default` if it
    /// was not given.
    pub fn name(
        &self,
        flag: &str,
        names: &[&'static str],
        default: &'static str,
    ) -> Result<&'static str, String> {
        let Some(value) = self.value(flag) else { return Ok(default) };
        names
            .iter()
            .copied()
            .find(|&n| n == value)
            .ok_or_else(|| format!("unknown {flag} value `{value}` (expected {})", names.join("|")))
    }
}

/// Parse the process's arguments with [`Args::parse`] and turn them into a
/// binary's settings with `settings`. On any error, print it and `usage` to
/// stderr and exit with code 2.
#[allow(clippy::print_stderr, reason = "the experiment binaries' one usage-error report")]
pub fn parse_or_exit<T>(
    usage: &str,
    value_flags: &[&'static str],
    switches: &[&'static str],
    settings: impl FnOnce(&Args) -> Result<T, String>,
) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&args, value_flags, switches).and_then(|args| settings(&args)) {
        Ok(settings) => settings,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}
