//! Minimal command-line parsing shared by the experiment binaries.

use std::collections::HashMap;

/// Flags common to every experiment binary.
///
/// Unknown flags abort with a message; every flag takes one value:
/// `--seed 7 --clients 200 --candidates 60 --hours 12 --scale 0.5`.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalArgs {
    /// Master seed (default 42).
    pub seed: u64,
    /// Client population size (default: per-experiment paper scale).
    pub clients: Option<usize>,
    /// Candidate-server population size.
    pub candidates: Option<usize>,
    /// Observation-campaign length in hours.
    pub hours: Option<u64>,
    /// CDN footprint scale.
    pub scale: Option<f64>,
    /// Output directory for CSV series (default `results`).
    pub out_dir: String,
    /// Observe directory: arms every SimTime-side observer (metrics,
    /// time series, causal traces, allocation attribution), runs the
    /// auditing passes (tail inversions, change-detection scans) and
    /// writes one file, `<dir>/<experiment>_manifest.json` (see
    /// [`crate::telemetry`]). `None` leaves them all disarmed.
    pub observe: Option<String>,
    /// Wall-clock profile output directory; `None` leaves profiling
    /// disabled. Kept apart from `observe` so the profile never times
    /// the other observers.
    pub profile: Option<String>,
}

impl Default for EvalArgs {
    fn default() -> Self {
        EvalArgs {
            seed: 42,
            clients: None,
            candidates: None,
            hours: None,
            scale: None,
            out_dir: "results".to_owned(),
            observe: None,
            profile: None,
        }
    }
}

impl EvalArgs {
    /// Parses `std::env::args`, aborting the process with a usage
    /// message on malformed input.
    pub fn parse() -> EvalArgs {
        Self::try_from_args(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("{message}");
            eprintln!(
                "usage: [--seed N] [--clients N] [--candidates N] [--hours N] \
                 [--scale X] [--out DIR] [--observe DIR] [--profile DIR]"
            );
            std::process::exit(2)
        })
    }

    /// Parses from an explicit argument list (testable core of [`parse`]).
    ///
    /// # Panics
    ///
    /// Panics on unknown flags, missing values, or unparseable numbers;
    /// [`EvalArgs::try_from_args`] is the non-panicking form.
    ///
    /// [`parse`]: EvalArgs::parse
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> EvalArgs {
        Self::try_from_args(args).unwrap_or_else(|message| panic!("{message}"))
    }

    /// Parses from an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown flags, missing
    /// values, or unparseable numbers.
    pub fn try_from_args<I: IntoIterator<Item = String>>(args: I) -> Result<EvalArgs, String> {
        fn number<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("--{what}: cannot parse `{value}`"))
        }

        let mut map: HashMap<String, String> = HashMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`; flags look like --seed 7"))?
                .to_owned();
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} requires a value"))?;
            map.insert(key, value);
        }
        let mut out = EvalArgs::default();
        for (k, v) in map {
            match k.as_str() {
                "seed" => out.seed = number(&v, "seed takes an integer")?,
                "clients" => out.clients = Some(number(&v, "clients takes an integer")?),
                "candidates" => out.candidates = Some(number(&v, "candidates takes an integer")?),
                "hours" => out.hours = Some(number(&v, "hours takes an integer")?),
                "scale" => out.scale = Some(number(&v, "scale takes a float")?),
                "out" => out.out_dir = v,
                "observe" => out.observe = Some(v),
                "profile" => out.profile = Some(v),
                other => return Err(format!("unknown flag --{other}")),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> EvalArgs {
        EvalArgs::from_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn defaults_when_empty() {
        let a = parse("");
        assert_eq!(a, EvalArgs::default());
        assert_eq!(a.seed, 42);
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(
            "--seed 7 --clients 100 --candidates 30 --hours 12 --scale 0.5 --out /tmp/r \
             --observe /tmp/o --profile /tmp/p",
        );
        assert_eq!(a.seed, 7);
        assert_eq!(a.clients, Some(100));
        assert_eq!(a.candidates, Some(30));
        assert_eq!(a.hours, Some(12));
        assert_eq!(a.scale, Some(0.5));
        assert_eq!(a.out_dir, "/tmp/r");
        assert_eq!(a.observe.as_deref(), Some("/tmp/o"));
        assert_eq!(a.profile.as_deref(), Some("/tmp/p"));
    }

    #[test]
    fn observe_and_profile_default_off() {
        let a = parse("--seed 3");
        assert_eq!(a.observe, None);
        assert_eq!(a.profile, None);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flag() {
        let _ = parse("--bogus 1");
    }

    #[test]
    fn retired_observer_flags_are_unknown() {
        for flag in ["telemetry", "audit", "live", "mem"] {
            let err = EvalArgs::try_from_args([format!("--{flag}"), "/tmp/x".to_owned()])
                .expect_err("retired flag must be rejected");
            assert_eq!(err, format!("unknown flag --{flag}"));
        }
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn rejects_missing_value() {
        let _ = parse("--seed");
    }
}
