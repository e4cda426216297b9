//! Shared helpers of the pmlp-bench binaries: command-line parsing, result
//! printing and JSON persistence.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use pmlp_core::experiment::{Effort, Figure1Result, Figure2Result};
use pmlp_core::report::{render_headline_table, HeadlineRow};
use std::path::{Path, PathBuf};

/// Parses an effort name from the command line: `full`, or `quick` (alias
/// `smoke`), in any case.
///
/// # Errors
///
/// Returns a message naming any other word.
pub fn parse_effort(name: &str) -> Result<Effort, String> {
    match name.to_ascii_lowercase().as_str() {
        "full" => Ok(Effort::Full),
        "quick" | "smoke" => Ok(Effort::Quick),
        _ => Err(format!(
            "invalid effort '{name}': expected full, quick or smoke"
        )),
    }
}

/// Parsed command line shared by the figure/table/campaign binaries.
#[derive(Debug, Default)]
pub struct CliOptions<'a> {
    /// Positional arguments, in order.
    pub positional: Vec<&'a str>,
    /// Effort override from `--quick`/`-q`/`--full`.
    pub effort: Option<Effort>,
    /// Persistent evaluation-store directory from `--store DIR` (or
    /// `--store=DIR`): engines warm-start from it and append their misses.
    pub store: Option<PathBuf>,
    /// Remote `pmlp-serve` URL from `--remote-store URL` (or
    /// `--remote-store=URL`). Combined with `--store DIR` the directory
    /// becomes a write-through cache of the server; alone, the server is the
    /// only persistence tier.
    pub remote_store: Option<String>,
    /// `--resume`: reuse campaign completion markers from the store
    /// instead of recomputing finished datasets.
    pub resume: bool,
    /// `--require-warm`: exit with an error if the run needed any fresh
    /// evaluation — CI's assertion that a store re-run recomputes nothing.
    pub require_warm: bool,
    /// Objective space from `--objectives LIST` (or `--objectives=LIST`), a
    /// comma-separated subset of `accuracy,area,delay,energy`. `None`
    /// keeps the classic `(accuracy, area)` space — and byte-identical
    /// artifacts to the fixed two-objective pipeline.
    pub objectives: Option<pmlp_core::ObjectiveSpace>,
    /// Remote-store request timeout override in milliseconds from
    /// `--remote-timeout-ms N` (connect + read + write deadlines of every
    /// request to the `pmlp-serve` tier; default 10s).
    pub remote_timeout_ms: Option<u64>,
    /// Bearer token from `--token TOKEN`: the `serve` binary requires it on
    /// every request except the liveness probe. (Workers pass their token
    /// inline in the URL instead: `--remote-store http://TOKEN@host:port`.)
    pub token: Option<String>,
    /// Worker-pool size override for the `serve` binary from `--workers N`
    /// (default: one per core, clamped to 4..=32).
    pub workers: Option<usize>,
    /// Durability policy of the local JSONL tier from `--durability POLICY`
    /// (`buffered`, `sync-each-append` or `sync-on-seal`; default
    /// `buffered`). Honoured by `--store DIR` compositions and by the
    /// `serve` binary's disk-backed store.
    pub durability: Option<pmlp_core::store::DurabilityPolicy>,
    /// Every flag given, in order, as written (without an attached value);
    /// checked by [`CliOptions::check_flags`].
    pub flags: Vec<&'a str>,
    /// A malformed command line detected during parsing (e.g. `--store`
    /// without a directory); surfaced by [`CliOptions::validate`].
    pub parse_error: Option<String>,
}

/// The flags `fig1` and `fig2` read.
pub const FIGURE_FLAGS: &[&str] = &[
    "--quick",
    "--full",
    "--objectives",
    "--store",
    "--remote-store",
    "--remote-timeout-ms",
    "--durability",
    "--require-warm",
];

/// The flags `campaign` and `table_headline` read: the figure flags and
/// `--resume`.
pub const CAMPAIGN_FLAGS: &[&str] = &[
    "--quick",
    "--full",
    "--objectives",
    "--store",
    "--remote-store",
    "--remote-timeout-ms",
    "--durability",
    "--require-warm",
    "--resume",
];

/// The flags `campaign gc` reads.
pub const CAMPAIGN_GC_FLAGS: &[&str] = &[
    "--quick",
    "--full",
    "--store",
    "--remote-store",
    "--remote-timeout-ms",
    "--durability",
];

/// The flags `serve` reads.
pub const SERVE_FLAGS: &[&str] = &["--store", "--token", "--workers", "--durability"];

impl CliOptions<'_> {
    /// Validates the parse and the flag combinations: `--resume`/
    /// `--require-warm` only make sense with a persistence tier (`--store`
    /// and/or `--remote-store`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed or invalid command
    /// lines.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(error) = &self.parse_error {
            return Err(error.clone());
        }
        if self.store.is_none() && self.remote_store.is_none() && (self.resume || self.require_warm)
        {
            return Err(
                "--resume/--require-warm need --store DIR and/or --remote-store URL".into(),
            );
        }
        if self.remote_timeout_ms == Some(0) {
            return Err("--remote-timeout-ms must be positive".into());
        }
        if self.workers == Some(0) {
            return Err("--workers must be positive".into());
        }
        Ok(())
    }

    /// Rejects a command line with more than `read` positionals, the number
    /// the binary reads: an argument it would drop is a mistake, not a no-op.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first positional past the last one read.
    pub fn check_positionals(&self, read: usize) -> Result<(), String> {
        match self.positional.get(read) {
            None => Ok(()),
            Some(extra) => Err(format!(
                "unexpected argument '{extra}': this command reads at most {read} positional argument(s)"
            )),
        }
    }

    /// Rejects a flag the command does not read; `read` lists the flags it
    /// does (`--quick` stands for its alias `-q` too). A flag a command would
    /// drop is a mistake, not a no-op.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first flag given that is not in `read`.
    pub fn check_flags(&self, read: &[&str]) -> Result<(), String> {
        let unread = self.flags.iter().find(|&&flag| {
            let name = if flag == "-q" { "--quick" } else { flag };
            !read.contains(&name)
        });
        match unread {
            None => Ok(()),
            Some(flag) => Err(format!(
                "unexpected flag {flag}: this command reads only {}",
                read.join(", ")
            )),
        }
    }

    /// The effort: `--quick`/`--full` when given, else the positional at
    /// `index`, else [`Effort::Full`]. The positional is checked even when a
    /// flag overrides it.
    ///
    /// # Errors
    ///
    /// Returns a message naming the positional when it is not an effort
    /// name (see [`parse_effort`]).
    pub fn effort(&self, index: usize) -> Result<Effort, String> {
        let named = self.positional.get(index).map(|name| parse_effort(name));
        let named = named.transpose()?.unwrap_or(Effort::Full);
        Ok(self.effort.unwrap_or(named))
    }

    /// The RNG seed given as the positional argument at `index`; 42 when the
    /// command line stops before it.
    ///
    /// # Errors
    ///
    /// Returns a message naming the argument when it is not a seed (an
    /// unsigned 64-bit integer).
    pub fn seed(&self, index: usize) -> Result<u64, String> {
        match self.positional.get(index) {
            None => Ok(42),
            Some(text) => text
                .parse()
                .map_err(|_| format!("invalid seed '{text}': expected an unsigned integer")),
        }
    }

    /// `true` when any persistence tier is configured.
    pub fn has_store(&self) -> bool {
        self.store.is_some() || self.remote_store.is_some()
    }

    /// Opens the [`StoreBackend`](pmlp_core::store::StoreBackend) the parsed
    /// flags select: local directory, remote server, their tiered
    /// composition, or `None` (see [`pmlp_core::store::open_backend`]).
    ///
    /// # Errors
    ///
    /// Propagates [`pmlp_core::CoreError::Store`] for an uncreatable
    /// directory or malformed URL.
    pub fn open_backend(
        &self,
    ) -> Result<Option<Box<dyn pmlp_core::store::StoreBackend>>, pmlp_core::CoreError> {
        pmlp_core::store::open_backend_opts(
            self.store.as_deref(),
            self.remote_store.as_deref(),
            &pmlp_core::store::BackendOptions {
                remote_timeout: self.remote_timeout_ms.map(std::time::Duration::from_millis),
                durability: self.durability.unwrap_or_default(),
                remote_cooldown: None,
            },
        )
    }
}

/// Parses the raw CLI arguments (excluding the program name) of the bench
/// binaries: positionals, the effort override and the persistence flags.
/// Every value flag takes its value either attached (`--flag=value`) or as
/// the next argument (`--flag value`); an argument starting with `--` that
/// names no flag is an error. Parsing stops at the first malformed argument.
/// Which of the known flags a binary reads is its own check
/// ([`CliOptions::check_flags`]).
pub fn parse_cli(args: &[String]) -> CliOptions<'_> {
    let mut options = CliOptions::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if let Err(error) = parse_arg(&mut options, arg, &mut rest) {
            options.parse_error = Some(error);
            break;
        }
    }
    options
}

/// Applies one command-line argument to `options`, taking the value of a
/// `--flag value` pair from `rest`.
fn parse_arg<'a>(
    options: &mut CliOptions<'a>,
    arg: &'a str,
    rest: &mut std::slice::Iter<'a, String>,
) -> Result<(), String> {
    let (flag, inline) = match arg.split_once('=') {
        Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
        _ => (arg, None),
    };
    let mut value = FlagValue { flag, inline, rest };
    match (flag, inline) {
        ("--quick" | "-q", None) => options.effort = Some(Effort::Quick),
        ("--full", None) => options.effort = Some(Effort::Full),
        ("--resume", None) => options.resume = true,
        ("--require-warm", None) => options.require_warm = true,
        ("--quick" | "--full" | "--resume" | "--require-warm", Some(_)) => {
            return Err(format!("{flag} takes no value"));
        }
        ("--store", _) => options.store = Some(PathBuf::from(value.text("a", "directory")?)),
        ("--remote-store", _) => options.remote_store = Some(value.text("a", "URL")?.into()),
        ("--token", _) => options.token = Some(value.text("a", "token")?.into()),
        ("--remote-timeout-ms", _) => {
            options.remote_timeout_ms = Some(value.number("a number of milliseconds")?);
        }
        ("--workers", _) => options.workers = Some(value.number("a thread count")?),
        ("--durability", _) => {
            let policy = value.raw().ok_or("--durability needs a policy argument")?;
            options.durability = Some(policy.parse()?);
        }
        ("--objectives", _) => {
            let list = value
                .arg()
                .ok_or("--objectives needs a comma-separated objective list")?;
            let space = pmlp_core::ObjectiveSpace::parse(list).map_err(|e| e.to_string())?;
            options.objectives = Some(space);
        }
        _ if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
        _ => {
            options.positional.push(arg);
            return Ok(());
        }
    }
    options.flags.push(flag);
    Ok(())
}

/// The value of one value flag: attached (`--flag=value`) or the next
/// argument (`--flag value`), which is consumed even when it is rejected.
struct FlagValue<'a, 'r> {
    flag: &'a str,
    inline: Option<&'a str>,
    rest: &'r mut std::slice::Iter<'a, String>,
}

impl<'a> FlagValue<'a, '_> {
    /// The value as given; `None` when it is missing.
    fn raw(&mut self) -> Option<&'a str> {
        self.inline.or_else(|| self.rest.next().map(String::as_str))
    }

    /// Like [`FlagValue::raw`], but a next argument that looks like another
    /// flag is a forgotten value, not the value.
    fn arg(&mut self) -> Option<&'a str> {
        let attached = self.inline.is_some();
        self.raw()
            .filter(|value| attached || !value.starts_with('-'))
    }

    /// A non-empty [`FlagValue::arg`]; the error names the `noun` the flag
    /// needs.
    fn text(&mut self, article: &str, noun: &str) -> Result<&'a str, String> {
        match self.arg() {
            Some(value) if !value.is_empty() => Ok(value),
            _ if self.inline.is_some() => Err(format!("{}= needs a non-empty {noun}", self.flag)),
            _ => Err(format!("{} needs {article} {noun} argument", self.flag)),
        }
    }

    /// The value parsed as a number; the error names `what` the flag needs.
    fn number<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, String> {
        self.raw()
            .and_then(|value| value.parse().ok())
            .ok_or_else(|| format!("{} needs {what}", self.flag))
    }
}

/// Renders one Fig. 1 subplot as the text table the paper plots.
pub fn render_figure1(result: &Figure1Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Figure 1 ({}) — baseline accuracy {:.1}%, baseline area {:.1} mm2 ===\n",
        result.dataset,
        result.baseline_accuracy * 100.0,
        result.baseline_area_mm2
    ));
    for series in &result.series {
        out.push_str(&series.to_string());
    }
    out
}

/// Renders the Fig. 2 comparison (standalone fronts vs the combined GA front).
pub fn render_figure2(result: &Figure2Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Figure 2 ({}) — baseline accuracy {:.1}%, baseline area {:.1} mm2 ===\n",
        result.dataset,
        result.baseline_accuracy * 100.0,
        result.baseline_area_mm2
    ));
    for series in &result.standalone {
        out.push_str(&series.to_string());
    }
    out.push_str(&result.combined.to_string());
    out.push_str(&format!(
        "# GA: {} generations, {} evaluations\n",
        result.search.history.len(),
        result
            .search
            .history
            .last()
            .map(|h| h.evaluations)
            .unwrap_or(0)
    ));
    out
}

/// Renders headline rows.
pub fn render_headline(rows: &[HeadlineRow]) -> String {
    render_headline_table(rows)
}

/// Writes a serializable result under `target/experiment-results/`, so every
/// figure's raw data can be inspected after the run.
///
/// Errors are printed rather than propagated: persisting results must never
/// fail a benchmark run.
pub fn persist_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = Path::new("target").join("experiment-results");
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {err}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(err) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {err}", path.display());
            }
        }
        Err(err) => eprintln!("warning: cannot serialize {name}: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn effort_parsing_defaults_to_full() {
        assert_eq!(parse_effort("quick"), Ok(Effort::Quick));
        assert_eq!(parse_effort("SMOKE"), Ok(Effort::Quick));
        assert_eq!(parse_effort("full"), Ok(Effort::Full));
        let args = argv(&["seeds"]);
        assert_eq!(parse_cli(&args).effort(1), Ok(Effort::Full));
        let error = parse_effort("anything").unwrap_err();
        assert!(error.contains("'anything'"), "{error}");
    }

    #[test]
    fn a_word_in_the_effort_slot_must_name_an_effort() {
        for (args, effort) in [
            (argv(&["seeds", "quick", "7"]), Effort::Quick),
            (argv(&["seeds", "Full"]), Effort::Full),
            (argv(&["seeds", "--quick"]), Effort::Quick),
            (argv(&["seeds", "full", "--quick"]), Effort::Quick),
        ] {
            assert_eq!(parse_cli(&args).effort(1), Ok(effort), "{args:?}");
        }
        // A seed in the effort slot is not a silent full-effort seed-42 run,
        // and a flag that overrides the slot does not hide it.
        for args in [argv(&["seeds", "7"]), argv(&["seeds", "--quick", "7"])] {
            let error = parse_cli(&args).effort(1).unwrap_err();
            assert!(error.contains("'7'"), "{args:?}: {error}");
        }
    }

    #[test]
    fn positionals_past_the_last_one_read_are_an_error() {
        let args = argv(&["seeds", "quick", "7"]);
        assert_eq!(parse_cli(&args).check_positionals(3), Ok(()));
        assert_eq!(parse_cli(&[]).check_positionals(1), Ok(()));
        for (args, read, extra) in [
            (argv(&["seeds", "quick", "7", "whitewine"]), 3, "whitewine"),
            (argv(&["quick", "7", "extra"]), 2, "extra"),
            (argv(&["--quick", "7", "extra", "more"]), 2, "more"),
            (argv(&["127.0.0.1:7878", "--store", "dir", "x"]), 1, "x"),
        ] {
            let error = parse_cli(&args).check_positionals(read).unwrap_err();
            assert!(error.contains(&format!("'{extra}'")), "{args:?}: {error}");
        }
    }

    #[test]
    fn each_command_rejects_the_flags_it_does_not_read() {
        for (command, read, accepted, unread) in [
            (
                "fig1",
                FIGURE_FLAGS,
                &["seeds", "-q", "--store", "d", "--require-warm"][..],
                &["--resume"][..],
            ),
            (
                "fig2",
                FIGURE_FLAGS,
                &[
                    "whitewine",
                    "--objectives",
                    "accuracy,area",
                    "--durability=buffered",
                ],
                &["--resume"],
            ),
            (
                "table_headline",
                CAMPAIGN_FLAGS,
                &[
                    "--full",
                    "--store",
                    "d",
                    "--resume",
                    "--remote-timeout-ms=5",
                ],
                &["--workers", "2"],
            ),
            (
                "campaign",
                CAMPAIGN_FLAGS,
                &["all", "--quick", "--remote-store", "http://h:1", "--resume"],
                &["--token", "t"],
            ),
            (
                "campaign gc",
                CAMPAIGN_GC_FLAGS,
                &["gc", "--quick", "--store", "d", "--durability", "buffered"],
                &["--objectives=accuracy,area"],
            ),
            (
                "serve",
                SERVE_FLAGS,
                &[
                    "127.0.0.1:0",
                    "--store",
                    "d",
                    "--token",
                    "t",
                    "--workers",
                    "2",
                ],
                &["-q"],
            ),
        ] {
            let mut args = argv(accepted);
            assert_eq!(parse_cli(&args).check_flags(read), Ok(()), "{command}");
            args.extend(argv(unread));
            let error = parse_cli(&args).check_flags(read).unwrap_err();
            let flag = unread[0].split('=').next().unwrap();
            assert!(
                error.starts_with(&format!("unexpected flag {flag}: this command reads only")),
                "{command}: {error}"
            );
        }
    }

    #[test]
    fn quick_flag_overrides_positionals() {
        let args: Vec<String> = ["seeds", "--quick", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.positional, vec!["seeds", "7"]);
        assert_eq!(options.effort, Some(Effort::Quick));

        let args: Vec<String> = ["seeds", "full"].iter().map(|s| s.to_string()).collect();
        let options = parse_cli(&args);
        assert_eq!(options.positional, vec!["seeds", "full"]);
        assert_eq!(options.effort, None);
    }

    #[test]
    fn a_malformed_seed_is_an_error_not_seed_42() {
        let args = argv(&["seeds", "quick", "7"]);
        assert_eq!(parse_cli(&args).seed(2), Ok(7));
        let args = argv(&["seeds", "quick"]);
        assert_eq!(parse_cli(&args).seed(2), Ok(42), "an absent seed is 42");
        for (args, index, bad) in [
            (argv(&["seeds", "quick", "notaseed"]), 2, "notaseed"),
            (argv(&["quick", "-7"]), 1, "-7"),
        ] {
            let error = parse_cli(&args).seed(index).unwrap_err();
            assert!(error.contains(&format!("'{bad}'")), "{args:?}: {error}");
        }
    }

    #[test]
    fn persistence_flags_are_parsed_in_both_forms() {
        let args: Vec<String> = ["all", "--store", "target/s", "--resume", "--require-warm"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.positional, vec!["all"]);
        assert_eq!(options.store.as_deref(), Some(Path::new("target/s")));
        assert!(options.resume && options.require_warm);
        assert!(options.validate().is_ok());

        let args: Vec<String> = ["--store=target/other"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.store.as_deref(), Some(Path::new("target/other")));

        let args: Vec<String> = ["--resume"].iter().map(|s| s.to_string()).collect();
        assert!(parse_cli(&args).validate().is_err(), "resume needs a store");
    }

    #[test]
    fn objectives_flag_is_parsed_in_both_forms() {
        use pmlp_core::ObjectiveKind;
        let args: Vec<String> = ["all", "--objectives", "accuracy,area,energy"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        let space = options.objectives.expect("parsed space");
        assert_eq!(
            space.objectives,
            vec![
                ObjectiveKind::AccuracyLoss,
                ObjectiveKind::Area,
                ObjectiveKind::EnergyPerInference
            ]
        );
        assert_eq!(options.positional, vec!["all"]);

        let args: Vec<String> = ["--objectives=accuracy,area,delay,energy"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_cli(&args).objectives.unwrap().dim(), 4);
        assert!(parse_cli(&[]).objectives.is_none(), "defaults to classic");

        for bad in [
            vec!["--objectives"],
            vec!["--objectives", "--resume"],
            vec!["--objectives", "accuracy,sparkle"],
            vec!["--objectives", "accuracy,power"],
            vec!["--objectives", "accuracy,area,accuracy"],
            vec!["--objectives="],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_cli(&args).validate().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn remote_store_flags_are_parsed_in_both_forms() {
        let args: Vec<String> = ["all", "--remote-store", "http://127.0.0.1:7878"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(
            options.remote_store.as_deref(),
            Some("http://127.0.0.1:7878")
        );
        assert!(options.has_store());
        assert!(options.validate().is_ok());

        let args: Vec<String> = ["--remote-store=http://h:1", "--require-warm"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.remote_store.as_deref(), Some("http://h:1"));
        assert!(
            options.validate().is_ok(),
            "--require-warm works with a remote tier alone"
        );

        // Missing or empty URLs are parse errors.
        let args: Vec<String> = ["--remote-store"].iter().map(|s| s.to_string()).collect();
        assert!(parse_cli(&args).validate().is_err());
        let args: Vec<String> = ["--remote-store="].iter().map(|s| s.to_string()).collect();
        assert!(parse_cli(&args).validate().is_err());
        // A following flag is a forgotten value, not a URL.
        let args: Vec<String> = ["--remote-store", "--resume"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_cli(&args).validate().is_err());
    }

    #[test]
    fn serve_tier_flags_are_parsed_in_both_forms() {
        let args: Vec<String> = [
            "0.0.0.0:7878",
            "--token",
            "sekrit",
            "--workers",
            "8",
            "--remote-timeout-ms",
            "2500",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let options = parse_cli(&args);
        assert_eq!(options.positional, vec!["0.0.0.0:7878"]);
        assert_eq!(options.token.as_deref(), Some("sekrit"));
        assert_eq!(options.workers, Some(8));
        assert_eq!(options.remote_timeout_ms, Some(2500));
        assert!(options.validate().is_ok());

        let args: Vec<String> = ["--token=t0k", "--workers=4", "--remote-timeout-ms=100"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.token.as_deref(), Some("t0k"));
        assert_eq!(options.workers, Some(4));
        assert_eq!(options.remote_timeout_ms, Some(100));

        // Missing values, non-numbers and zeros are rejected.
        for bad in [
            vec!["--token"],
            vec!["--workers", "lots"],
            vec!["--remote-timeout-ms"],
            vec!["--remote-timeout-ms", "soon"],
            vec!["--workers", "0"],
            vec!["--remote-timeout-ms", "0"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_cli(&args).validate().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn durability_flag_is_parsed_in_both_forms() {
        use pmlp_core::store::DurabilityPolicy;
        let args: Vec<String> = ["--store", "target/s", "--durability", "sync-each-append"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.durability, Some(DurabilityPolicy::SyncEachAppend));
        assert!(options.validate().is_ok());

        let args: Vec<String> = ["--durability=sync-on-seal"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_cli(&args).durability,
            Some(DurabilityPolicy::SyncOnSeal)
        );
        assert_eq!(parse_cli(&[]).durability, None, "defaults to buffered");

        for bad in [vec!["--durability"], vec!["--durability", "paranoid"]] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_cli(&args).validate().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn open_backend_composes_the_selected_tiers() {
        let dir = std::env::temp_dir().join(format!(
            "pmlp-bench-backend-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let options = CliOptions {
            store: Some(dir.clone()),
            remote_store: Some("http://127.0.0.1:7878".into()),
            ..CliOptions::default()
        };
        let backend = options.open_backend().unwrap().unwrap();
        assert!(backend.describe().starts_with("tiered"));
        assert!(CliOptions::default().open_backend().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_store_flags_are_rejected_not_swallowed() {
        // `--store` followed by another flag must not eat the flag as a path.
        let args: Vec<String> = ["all", "--store", "--resume"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert!(options.store.is_none());
        assert!(options.validate().is_err());

        // A trailing `--store` without a value is an error, not a silent
        // no-persistence run.
        let args: Vec<String> = ["all", "--quick", "--store"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_cli(&args).validate().is_err());

        let args: Vec<String> = ["--store="].iter().map(|s| s.to_string()).collect();
        assert!(parse_cli(&args).validate().is_err());

        // A missing, empty or flag-looking value is reported in the form the
        // flag was given.
        for (args, error) in [
            (vec!["--store"], "--store needs a directory argument"),
            (
                vec!["--store", "--resume"],
                "--store needs a directory argument",
            ),
            (vec!["--store="], "--store= needs a non-empty directory"),
            (
                vec!["--remote-store="],
                "--remote-store= needs a non-empty URL",
            ),
            (vec!["--token", "-x"], "--token needs a token argument"),
            (vec!["--workers="], "--workers needs a thread count"),
            (vec!["--durability"], "--durability needs a policy argument"),
            (
                vec!["--objectives", "--resume"],
                "--objectives needs a comma-separated objective list",
            ),
            // Unknown flags are errors, not positionals, in both forms.
            (
                vec!["all", "--quick", "--worker-id", "w1", "--steal"],
                "unknown flag --worker-id",
            ),
            (vec!["--worker-id=w1"], "unknown flag --worker-id"),
            (vec!["--steal"], "unknown flag --steal"),
            (vec!["--lease-ttl-ms=100"], "unknown flag --lease-ttl-ms"),
            (
                vec!["--drain-timeout-ms", "2500"],
                "unknown flag --drain-timeout-ms",
            ),
            (
                vec!["--drain-timeout-ms=100"],
                "unknown flag --drain-timeout-ms",
            ),
            (vec!["--quick=yes"], "--quick takes no value"),
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            assert_eq!(parse_cli(&args).validate().unwrap_err(), error, "{args:?}");
        }
    }
}
