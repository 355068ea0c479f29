//! `--flag VALUE` command-line parsing shared by the workspace's binaries.

/// The value after each occurrence of `flag` in `argv`, in order. A `flag`
/// that is the last argument has no value: that is a usage error, reported
/// as `missing value for <flag>` on stderr with exit code 2.
pub fn flag_values(argv: &[String], flag: &str) -> Vec<String> {
    argv.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .map(|(i, _)| match argv.get(i + 1) {
            Some(value) => value.clone(),
            None => {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            }
        })
        .collect()
}

/// The value after the first occurrence of `flag`, if the flag is given.
pub fn flag_value(argv: &[String], flag: &str) -> Option<String> {
    flag_values(argv, flag).into_iter().next()
}
