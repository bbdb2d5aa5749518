//! Seeded no-env-knob violation (linter input only, never compiled).

pub fn workers_from_the_environment() -> usize {
    // seeded: no-env-knob (a worker count no caller passed)
    match std::env::var("WORKERS") {
        Ok(v) => v.parse().unwrap_or(1),
        Err(_) => 1,
    }
}

pub fn workers_from_the_caller(opts: &Opts) -> usize {
    // clean: the value arrives as a parameter; a field named `var` is not
    // an environment read
    opts.var.max(1)
}
