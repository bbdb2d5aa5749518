//! Seeded plan-no-snapshot violation (linter input only, never compiled).

pub fn stats_by_walking_the_table(table: &Table) -> f64 {
    // seeded: plan-no-snapshot (a full-table row vector per plan)
    let rows = table.snapshot();
    rows.iter().map(|r| r.wire_size() as f64).sum::<f64>() / rows.len().max(1) as f64
}

pub fn stats_from_the_profile(table: &Table) -> f64 {
    // clean: the table's running profile, O(width); a local named `snapshot`
    // is not a call
    let snapshot = table.profile();
    snapshot.col_wire_bytes.iter().sum::<u64>() as f64 / snapshot.rows.max(1) as f64
}
