//! The one argument parser of the workspace's binaries.
//!
//! Each binary declares its flags once, as a table of [`Flag`]s. [`parse`]
//! scans argv left to right against the table and stops at the first bad
//! argument or at `--help`/`-h`, [`options`] prints the table as help text,
//! and [`finish`] exits with the help (status 0) or an error (status 2).

use std::fmt::Display;
use std::str::FromStr;

/// One declared flag: its head as the help shows it (`--name`, after an
/// alias such as `-n, ` and before a metavariable if it takes a value),
/// what its value must be, the environment variable that stands in for an
/// absent flag, and its help line.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    head: &'static str,
    kind: Kind,
    env: Option<&'static str>,
    help: &'static str,
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// No value.
    Switch,
    /// No value, and the scan ends here, as at `--help`.
    Stop,
    /// Any value.
    Text,
    /// An unsigned number in `.0..=.1`.
    Number(u64, u64),
}

impl Flag {
    const fn new(head: &'static str, kind: Kind, help: &'static str) -> Flag {
        Flag {
            head,
            kind,
            env: None,
            help,
        }
    }
    /// A flag with no value.
    pub const fn switch(head: &'static str, help: &'static str) -> Flag {
        Flag::new(head, Kind::Switch, help)
    }
    /// A flag with no value that ends the scan: later arguments are ignored.
    pub const fn stop(head: &'static str, help: &'static str) -> Flag {
        Flag::new(head, Kind::Stop, help)
    }
    /// A flag with any value.
    pub const fn text(head: &'static str, help: &'static str) -> Flag {
        Flag::new(head, Kind::Text, help)
    }
    /// A flag whose value is an unsigned number in `min..=max`.
    pub const fn range(head: &'static str, min: u64, max: u64, help: &'static str) -> Flag {
        Flag::new(head, Kind::Number(min, max), help)
    }
    /// A flag whose value is any unsigned number.
    pub const fn number(head: &'static str, help: &'static str) -> Flag {
        Flag::range(head, 0, u64::MAX, help)
    }
    /// A flag whose value is a positive number.
    pub const fn positive(head: &'static str, help: &'static str) -> Flag {
        Flag::range(head, 1, u64::MAX, help)
    }
    /// The flag, read from environment variable `var` when argv lacks it.
    pub const fn env(mut self, var: &'static str) -> Flag {
        self.env = Some(var);
        self
    }

    /// The spellings of the flag; the last is the name [`Parsed`] uses.
    fn names(&self) -> impl Iterator<Item = &'static str> {
        self.head.split([' ', ',']).filter(|w| w.starts_with('-'))
    }
    fn name(&self) -> &'static str {
        self.names().last().unwrap_or(self.head)
    }
    /// The flag's entry for `value`, given under `name` (the flag's or its
    /// variable's), which must be a number if the flag takes one.
    fn entry(&self, name: &str, value: String) -> Result<(&'static str, String), String> {
        if let Kind::Number(min, max) = self.kind {
            check_number(name, &value, min, max)?;
        }
        Ok((self.name(), value))
    }
}

/// Checks that `value` of `name` is an unsigned number in `min..=max`; the
/// error names `name`.
fn check_number(name: &str, value: &str, min: u64, max: u64) -> Result<(), String> {
    let rule = match value.parse::<u64>() {
        Err(_) => format!("needs a number, got {value:?}"),
        Ok(n) if n < min && min == 1 => "must be positive".to_string(),
        Ok(n) if n < min => format!("must be at least {min}"),
        Ok(n) if n > max => format!("must be at most {max}"),
        Ok(_) => return Ok(()),
    };
    Err(format!("{name} {rule}"))
}

/// The flags a scan found, in argv order, by name, with their values.
#[derive(Debug)]
pub struct Parsed(Vec<(&'static str, String)>);

impl Parsed {
    /// The value of the last given of the flags `names`.
    pub fn last(&self, names: &[&str]) -> Option<&str> {
        let (_, value) = self.0.iter().rev().find(|(n, _)| names.contains(n))?;
        Some(value)
    }
    /// Whether flag `name` was given.
    pub fn on(&self, name: &str) -> bool {
        self.last(&[name]).is_some()
    }
    /// The last value of flag `name` as a `T`, or `None` if it was not
    /// given. A value `T` refuses is an error, in `T`'s words.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let parse = |v: &str| v.parse().map_err(|e: T::Err| e.to_string());
        self.last(&[name]).map(parse).transpose()
    }
}

fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

/// Scans `argv` against `flags` and builds the typed result from the flags
/// found; `Ok(None)` means help was asked for. `build` also runs on the
/// flags before a `--help`, so a bad value there is still an error.
pub fn parse<T>(
    flags: &[Flag],
    argv: impl IntoIterator<Item = String>,
    build: impl FnOnce(Parsed) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let mut found = Parsed(Vec::new());
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if is_help(&arg) {
            return build(found).map(|_| None);
        }
        let flag = flags
            .iter()
            .find(|f| f.names().any(|n| n == arg))
            .ok_or_else(|| format!("unknown argument: {arg}"))?;
        let value = match flag.kind {
            Kind::Switch | Kind::Stop => String::new(),
            Kind::Text | Kind::Number(..) => argv
                .next()
                .ok_or_else(|| format!("{} needs a value", flag.name()))?,
        };
        found.0.push(flag.entry(flag.name(), value)?);
        if let Kind::Stop = flag.kind {
            break;
        }
    }
    for flag in flags {
        let Some(var) = flag.env.filter(|_| !found.on(flag.name())) else {
            continue;
        };
        match std::env::var(var) {
            Ok(value) => found.0.push(flag.entry(var, value)?),
            Err(std::env::VarError::NotPresent) => {}
            Err(e) => return Err(format!("{var}: {e}")),
        }
    }
    build(found).map(Some)
}

/// Takes the leading word of `argv`, a subcommand or a name, and looks it
/// up with `find`; `Ok(None)` means the word asks for help. The error for
/// a missing or unknown word calls it `what`.
pub fn lead<T>(
    argv: &mut impl Iterator<Item = String>,
    what: &str,
    find: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match argv.next() {
        None => Err(format!("missing {what}")),
        Some(word) if is_help(&word) => Ok(None),
        Some(word) => find(&word)
            .map(Some)
            .ok_or_else(|| format!("unknown {what} {word:?}")),
    }
}

/// The help text of `flags` and of `--help`: a line per head, then its help
/// and the bounds of a number.
pub fn options(flags: &[Flag]) -> String {
    let help = Flag::switch("-h, --help", "print this help and exit");
    let mut out = String::from("options:\n");
    for f in flags.iter().chain([&help]) {
        let bounds = match f.kind {
            Kind::Number(1, u64::MAX) => " (positive)".to_string(),
            Kind::Number(min @ 2.., u64::MAX) => format!(" (at least {min})"),
            Kind::Number(min, max) if max < u64::MAX => format!(" ({min} to {max})"),
            _ => String::new(),
        };
        out += &format!("  {:<19} {}{bounds}\n", f.head, f.help);
    }
    out
}

/// The value of a parse, or the end of the process: help to stdout with
/// status 0, or the error and `help` to stderr with status 2.
pub fn finish<T>(parsed: Result<Option<T>, String>, help: &str) -> T {
    match parsed {
        Ok(Some(value)) => value,
        Ok(None) => {
            print!("{help}");
            std::process::exit(0)
        }
        Err(e) => {
            eprint!("error: {e}\n\n{help}");
            std::process::exit(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::number("--seed N", "seed"),
        Flag::positive("--accesses N", "budget"),
        Flag::range("--cores N", 1, 256, "cores"),
        Flag::range("--min N", 16, u64::MAX, "at least sixteen"),
        Flag::text("--json PATH", "output"),
        Flag::switch("-q, --quiet", "quiet"),
        Flag::stop("--list", "list and exit"),
    ];

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn run(args: &[&str]) -> Result<Option<Vec<(&'static str, String)>>, String> {
        parse(FLAGS, argv(args), |p| Ok(p.0))
    }

    fn err(args: &[&str]) -> String {
        run(args).expect_err("a bad argument list")
    }

    #[test]
    fn values_are_typed_and_the_last_one_wins() {
        let args = argv(&[
            "--seed", "7", "-q", "--json", "a", "--seed", "9", "--json", "b",
        ]);
        let got = parse(FLAGS, args, |p| {
            Ok((
                p.get::<u64>("--seed")?,
                p.get::<String>("--json")?,
                p.on("--quiet"),
            ))
        });
        assert_eq!(got, Ok(Some((Some(9), Some("b".to_string()), true))));
        let absent = parse(FLAGS, [], |p| {
            Ok((p.get::<u64>("--cores")?, p.on("--quiet")))
        });
        assert_eq!(absent, Ok(Some((None, false))));
        let args = argv(&["--seed", "1", "--accesses", "2"]);
        let last = parse(FLAGS, args, |p| {
            Ok(p.last(&["--accesses", "--seed"]).map(String::from))
        });
        assert_eq!(last, Ok(Some(Some("2".to_string()))));
    }

    #[test]
    fn a_value_the_type_refuses_is_its_error() {
        let got = parse(FLAGS, argv(&["--json", "x"]), |p| p.get::<u8>("--json"));
        assert_eq!(got, Err("invalid digit found in string".to_string()));
    }

    #[test]
    fn missing_values_and_non_numbers_name_the_flag() {
        assert_eq!(err(&["--json"]), "--json needs a value");
        assert_eq!(err(&["--seed"]), "--seed needs a value");
        assert_eq!(err(&["--seed", "x"]), "--seed needs a number, got \"x\"");
        assert_eq!(err(&["--seed", "-1"]), "--seed needs a number, got \"-1\"");
        assert_eq!(
            err(&["--seed", "1e5"]),
            "--seed needs a number, got \"1e5\""
        );
        let too_big = "18446744073709551616";
        assert_eq!(
            err(&["--seed", too_big]),
            format!("--seed needs a number, got {too_big:?}")
        );
    }

    #[test]
    fn numbers_keep_their_bounds() {
        assert_eq!(err(&["--accesses", "0"]), "--accesses must be positive");
        assert_eq!(err(&["--cores", "0"]), "--cores must be positive");
        assert_eq!(err(&["--cores", "257"]), "--cores must be at most 256");
        assert_eq!(err(&["--min", "15"]), "--min must be at least 16");
        let edges = [
            "--seed",
            "0",
            "--cores",
            "256",
            "--min",
            "16",
            "--accesses",
            "1",
        ];
        assert!(run(&edges).unwrap().is_some());
    }

    #[test]
    fn unknown_arguments_are_errors() {
        assert_eq!(err(&["--frobnicate"]), "unknown argument: --frobnicate");
        assert_eq!(err(&["stray"]), "unknown argument: stray");
        // A metavariable is not a spelling of its flag.
        assert_eq!(err(&["N"]), "unknown argument: N");
    }

    #[test]
    fn help_and_stop_flags_end_the_scan() {
        assert_eq!(run(&["--help", "--frobnicate"]), Ok(None));
        assert_eq!(run(&["-q", "-h"]), Ok(None));
        // A bad argument before the help request is still an error.
        assert!(run(&["--frobnicate", "--help"]).is_err());
        let bad_value = parse(FLAGS, argv(&["--json", "x", "--help"]), |p| {
            p.get::<u8>("--json")
        });
        assert!(bad_value.is_err());
        let listed = run(&["--list", "--frobnicate"]).unwrap().unwrap();
        assert_eq!(listed, [("--list", String::new())]);
    }

    #[test]
    fn an_env_value_stands_in_for_an_absent_flag_under_the_same_rule() {
        // Only this test reads or sets the variable: tests share the process.
        const JOBS: &[Flag] = &[Flag::positive("--jobs N", "workers").env("COSMOS_CLI_TEST_JOBS")];
        let run = |args: &[&str]| parse(JOBS, argv(args), |p| p.get::<u64>("--jobs"));
        std::env::set_var("COSMOS_CLI_TEST_JOBS", "0");
        assert_eq!(
            run(&[]),
            Err("COSMOS_CLI_TEST_JOBS must be positive".into())
        );
        assert_eq!(run(&["--jobs", "3"]), Ok(Some(Some(3))));
        assert_eq!(run(&["--help"]), Ok(None));
        std::env::set_var("COSMOS_CLI_TEST_JOBS", "four");
        let four = "COSMOS_CLI_TEST_JOBS needs a number, got \"four\"";
        assert_eq!(run(&[]), Err(four.into()));
        std::env::set_var("COSMOS_CLI_TEST_JOBS", "5");
        assert_eq!(run(&[]), Ok(Some(Some(5))));
        std::env::remove_var("COSMOS_CLI_TEST_JOBS");
        assert_eq!(run(&[]), Ok(Some(None)));
    }

    #[test]
    fn lead_takes_a_known_word_or_help() {
        let find = |w: &str| (w == "ckpt").then_some(1);
        let mut args = argv(&["ckpt", "--x"]).into_iter();
        assert_eq!(lead(&mut args, "subcommand", find), Ok(Some(1)));
        assert_eq!(args.next().as_deref(), Some("--x"));
        let mut help = argv(&["-h"]).into_iter();
        assert_eq!(lead(&mut help, "subcommand", find), Ok(None));
        let missing = lead(&mut std::iter::empty(), "subcommand", find);
        assert_eq!(missing, Err("missing subcommand".into()));
        let mut bad = argv(&["fig99"]).into_iter();
        assert_eq!(
            lead(&mut bad, "figure", find),
            Err("unknown figure \"fig99\"".into())
        );
    }

    #[test]
    fn generated_help_lists_every_declared_flag() {
        let text = options(FLAGS);
        for flag in FLAGS {
            assert!(text.contains(flag.head), "{} missing:\n{text}", flag.head);
        }
        for line in [
            "  --seed N            seed\n",
            "  --accesses N        budget (positive)\n",
            "  --cores N           cores (1 to 256)\n",
            "  --min N             at least sixteen (at least 16)\n",
            "  --json PATH         output\n",
            "  -q, --quiet         quiet\n",
            "  --list              list and exit\n",
            "  -h, --help          print this help and exit\n",
        ] {
            assert!(text.contains(line), "{line:?} missing:\n{text}");
        }
    }
}
