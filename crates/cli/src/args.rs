//! Typed argument parsing for the `ccv` binary.
//!
//! Each subcommand declares a static [`ArgSpec`] — its positional
//! arguments and option flags, with help text — and parses its raw
//! argument slice into a [`ParsedArgs`]. The parser gives:
//!
//! * **positioned errors** — a bad token is reported with its argument
//!   position and a pointer to the subcommand's `--help`;
//! * **typed access** — option values parse through [`FromStr`] at the
//!   call site (`p.value::<usize>("-n")`), with uniform error text;
//! * **generated help** — `ccv <cmd> --help` renders the spec, so the
//!   usage text can never drift from what the parser accepts.
//!
//! No external dependencies; the whole grammar is "positionals plus
//! `--flag [VALUE]` options", which is all `ccv` needs.

use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Duration;

/// One option flag accepted by a subcommand.
pub struct Flag {
    /// The literal option token, e.g. `"--dot"` or `"-n"`.
    pub name: &'static str,
    /// Metavariable for the value, or `None` for a boolean switch.
    ///
    /// A metavariable starting with `[` (e.g. `"[N]"`) marks the value
    /// *optional*: the bare flag parses as a switch, and a value can
    /// only be attached inline as `--flag=value` (never as the next
    /// token, which stays available as a positional).
    pub value: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
}

/// One positional argument accepted by a subcommand.
pub struct Positional {
    /// Metavariable, e.g. `"protocol"`.
    pub name: &'static str,
    /// Whether omitting it is a usage error.
    pub required: bool,
    /// One-line help text.
    pub help: &'static str,
}

/// The argument grammar of one subcommand.
pub struct ArgSpec {
    /// Subcommand name as typed on the command line.
    pub cmd: &'static str,
    /// One-line description, shown at the top of `--help`.
    pub summary: &'static str,
    /// Positional arguments, in order.
    pub positionals: &'static [Positional],
    /// Option flags.
    pub flags: &'static [Flag],
}

/// Parsed arguments of one subcommand invocation.
#[derive(Debug)]
pub struct ParsedArgs {
    /// True iff `--help`/`-h` appeared; the command should print
    /// [`ArgSpec::help`] and succeed without running.
    pub help: bool,
    positionals: Vec<String>,
    /// Option name, raw value and the value's 1-based position.
    values: Vec<(&'static str, String, usize)>,
    switches: Vec<&'static str>,
}

impl ArgSpec {
    /// The one-line usage string, derived from the spec.
    pub fn usage(&self) -> String {
        let mut s = format!("ccv {}", self.cmd);
        for p in self.positionals {
            if p.required {
                let _ = write!(s, " <{}>", p.name);
            } else {
                let _ = write!(s, " [{}]", p.name);
            }
        }
        for f in self.flags {
            match f.value {
                Some(v) => {
                    let _ = write!(s, " [{} {v}]", f.name);
                }
                None => {
                    let _ = write!(s, " [{}]", f.name);
                }
            }
        }
        s
    }

    /// The full `--help` text.
    pub fn help(&self) -> String {
        let mut s = format!("{}\n\nusage:\n  {}\n", self.summary, self.usage());
        if !self.positionals.is_empty() {
            let _ = write!(s, "\narguments:\n");
            for p in self.positionals {
                let _ = writeln!(s, "  <{:<18} {}", format!("{}>", p.name), p.help);
            }
        }
        if !self.flags.is_empty() {
            let _ = write!(s, "\noptions:\n");
            for f in self.flags {
                let head = match f.value {
                    Some(v) => format!("{} {v}", f.name),
                    None => f.name.to_string(),
                };
                let _ = writeln!(s, "  {head:<19} {}", f.help);
            }
        }
        let _ = writeln!(s, "  {:<19} show this help", "--help");
        s
    }

    fn find_flag(&self, token: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| f.name == token)
    }

    /// Parses the raw argument slice (everything after the subcommand
    /// name). Errors carry the 1-based argument position.
    pub fn parse(&self, args: &[String]) -> Result<ParsedArgs, String> {
        let mut p = ParsedArgs {
            help: false,
            positionals: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let tok = &args[i];
            let at = i + 1;
            // `--flag=value` splits into the flag and an inline value.
            let (name, inline) = match tok.split_once('=') {
                Some((n, v)) if n.starts_with("--") => (n, Some(v)),
                _ => (tok.as_str(), None),
            };
            if tok == "--help" || tok == "-h" {
                p.help = true;
            } else if let Some(f) = self.find_flag(name) {
                match (f.value, inline) {
                    (Some(_), Some(v)) => p.values.push((f.name, v.to_string(), at)),
                    (Some(mv), None) if mv.starts_with('[') => {
                        // Optional value, not supplied: plain switch.
                        p.switches.push(f.name);
                    }
                    (Some(mv), None) => {
                        let raw = args.get(i + 1).ok_or_else(|| {
                            format!("option {} (argument {at}) needs a {mv} value", f.name)
                        })?;
                        p.values.push((f.name, raw.clone(), at + 1));
                        i += 1;
                    }
                    (None, Some(_)) => {
                        return Err(format!(
                            "option {} (argument {at}) does not take a value",
                            f.name
                        ));
                    }
                    (None, None) => p.switches.push(f.name),
                }
            } else if tok.starts_with('-')
                && tok.len() > 1
                && !tok[1..].starts_with(|c: char| c.is_ascii_digit())
            {
                return Err(format!(
                    "unknown option '{tok}' (argument {at} to `ccv {}`); run `ccv {} --help`",
                    self.cmd, self.cmd
                ));
            } else if p.positionals.len() < self.positionals.len() {
                p.positionals.push(tok.clone());
            } else {
                return Err(format!(
                    "unexpected argument '{tok}' (argument {at}); `ccv {}` takes {} positional argument{}",
                    self.cmd,
                    self.positionals.len(),
                    if self.positionals.len() == 1 { "" } else { "s" }
                ));
            }
            i += 1;
        }
        if !p.help {
            for (idx, spec) in self.positionals.iter().enumerate() {
                if spec.required && p.positionals.len() <= idx {
                    return Err(format!(
                        "missing required <{}> argument; run `ccv {} --help`",
                        spec.name, self.cmd
                    ));
                }
            }
        }
        Ok(p)
    }
}

impl ParsedArgs {
    /// True iff the boolean switch `name` appeared.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The value of option `name`, parsed as `T` (last occurrence
    /// wins), or `None` if absent.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.convert(name, |raw| raw.parse().ok())
    }

    /// The value of option `name` as a span of (fractional) seconds,
    /// or `None` if absent. Negative, NaN, infinite and overflowing
    /// values are usage errors.
    pub fn seconds(&self, name: &str) -> Result<Option<Duration>, String> {
        self.convert(name, |raw| {
            Duration::try_from_secs_f64(raw.parse().ok()?).ok()
        })
        .map_err(|e| format!("{e}: expected a finite, non-negative number of seconds"))
    }

    /// The last value of option `name` through `convert`; a value it
    /// rejects is an error naming the option and its position.
    fn convert<T>(
        &self,
        name: &str,
        convert: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some((_, raw, at)) = self.values.iter().rev().find(|(n, ..)| *n == name) else {
            return Ok(None);
        };
        convert(raw)
            .map(Some)
            .ok_or_else(|| format!("invalid value '{raw}' for {name} (argument {at})"))
    }

    /// The value of option `name`, or `default` if absent.
    pub fn value_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.value(name)?.unwrap_or(default))
    }

    /// The `i`-th positional argument, if given.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(|s| s.as_str())
    }

    /// The `i`-th positional argument; an error naming `what` if absent.
    pub fn require_pos(&self, i: usize, what: &str) -> Result<&str, String> {
        self.pos(i).ok_or_else(|| format!("missing {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: ArgSpec = ArgSpec {
        cmd: "demo",
        summary: "a demo command",
        positionals: &[Positional {
            name: "protocol",
            required: true,
            help: "protocol name",
        }],
        flags: &[
            Flag {
                name: "--trace",
                value: None,
                help: "print the trace",
            },
            Flag {
                name: "-n",
                value: Some("N"),
                help: "cache count",
            },
        ],
    };

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_flags_and_values() {
        let p = SPEC
            .parse(&args(&["illinois", "--trace", "-n", "3"]))
            .unwrap();
        assert_eq!(p.pos(0), Some("illinois"));
        assert!(p.flag("--trace"));
        assert_eq!(p.value::<usize>("-n").unwrap(), Some(3));
        assert_eq!(p.value_or::<usize>("-n", 9).unwrap(), 3);
    }

    #[test]
    fn unknown_option_is_positioned() {
        let e = SPEC.parse(&args(&["illinois", "--bogus"])).unwrap_err();
        assert!(e.contains("--bogus"), "{e}");
        assert!(e.contains("argument 2"), "{e}");
        assert!(e.contains("--help"), "{e}");
    }

    #[test]
    fn missing_value_is_reported() {
        let e = SPEC.parse(&args(&["illinois", "-n"])).unwrap_err();
        assert!(e.contains("-n"), "{e}");
        assert!(e.contains("needs a N value"), "{e}");
    }

    #[test]
    fn missing_required_positional_is_reported() {
        let e = SPEC.parse(&args(&["--trace"])).unwrap_err();
        assert!(e.contains("<protocol>"), "{e}");
    }

    #[test]
    fn excess_positionals_are_rejected() {
        let e = SPEC.parse(&args(&["a", "b"])).unwrap_err();
        assert!(e.contains("unexpected argument 'b'"), "{e}");
    }

    #[test]
    fn bad_value_types_are_reported_at_access() {
        let p = SPEC.parse(&args(&["illinois", "-n", "lots"])).unwrap();
        let e = p.value::<usize>("-n").unwrap_err();
        assert!(
            e.contains("invalid value 'lots' for -n (argument 3)"),
            "{e}"
        );
    }

    #[test]
    fn seconds_reject_what_a_duration_cannot_hold() {
        let seconds = |raw: &str| SPEC.parse(&args(&["a", "-n", raw])).unwrap().seconds("-n");
        assert_eq!(seconds("1.5"), Ok(Some(Duration::from_millis(1500))));
        for raw in ["-1", "nan", "inf", "1e300", "soon"] {
            let e = seconds(raw).unwrap_err();
            assert!(e.contains(&format!("'{raw}' for -n (argument 3)")), "{e}");
        }
    }

    #[test]
    fn negative_numbers_are_not_flags() {
        // "-2" must parse as a (rejected) positional, not an unknown
        // option, so numeric values can be passed through.
        let e = SPEC.parse(&args(&["a", "-2"])).unwrap_err();
        assert!(e.contains("unexpected argument"), "{e}");
    }

    const OPT_SPEC: ArgSpec = ArgSpec {
        cmd: "opt",
        summary: "optional-value demo",
        positionals: &[Positional {
            name: "protocol",
            required: false,
            help: "protocol name",
        }],
        flags: &[Flag {
            name: "--flight-recorder",
            value: Some("[N]"),
            help: "ring capacity",
        }],
    };

    #[test]
    fn equals_form_attaches_a_value() {
        let p = SPEC.parse(&args(&["illinois", "-n", "3"])).unwrap();
        assert_eq!(p.value::<usize>("-n").unwrap(), Some(3));
        // Long options also accept --flag=value in one token.
        let p = OPT_SPEC.parse(&args(&["--flight-recorder=8192"])).unwrap();
        assert_eq!(p.value::<usize>("--flight-recorder").unwrap(), Some(8192));
        assert!(!p.flag("--flight-recorder"));
    }

    #[test]
    fn optional_value_flag_works_bare_and_keeps_the_next_token() {
        let p = OPT_SPEC
            .parse(&args(&["--flight-recorder", "illinois"]))
            .unwrap();
        assert!(p.flag("--flight-recorder"));
        assert_eq!(p.value::<usize>("--flight-recorder").unwrap(), None);
        // The next token was parsed as a positional, not swallowed.
        assert_eq!(p.pos(0), Some("illinois"));
    }

    #[test]
    fn switches_reject_inline_values() {
        let e = SPEC.parse(&args(&["a", "--trace=yes"])).unwrap_err();
        assert!(e.contains("does not take a value"), "{e}");
    }

    #[test]
    fn help_suppresses_required_checks() {
        let p = SPEC.parse(&args(&["--help"])).unwrap();
        assert!(p.help);
        let h = SPEC.help();
        assert!(h.contains("usage:"));
        assert!(h.contains("--trace"));
        assert!(h.contains("<protocol>"));
    }
}
