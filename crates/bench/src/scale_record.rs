//! Shared surgery on `BENCH_scale.json`.
//!
//! Two benches record into the same file: `scale_approx` owns the
//! crossover ladder and the 10⁶-node headline, `scale_series` owns the
//! `"series"` member (the delta-repaired sketch series). Either bench
//! may run alone, so each preserves the other's half: `scale_approx`
//! rewrites the whole file but re-splices an existing `"series"` block,
//! and `scale_series` splices its block into whatever ladder file is
//! present.

/// Byte span of the `"series"` member — from the comma (or whitespace)
/// preceding the key through the value object's closing brace.
fn member_span(text: &str) -> Option<(usize, usize)> {
    let key = text.find("\"series\"")?;
    let mut start = key;
    while start > 0 && text.as_bytes()[start - 1].is_ascii_whitespace() {
        start -= 1;
    }
    if start > 0 && text.as_bytes()[start - 1] == b',' {
        start -= 1;
    }
    let open = key + text[key..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in text[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((start, open + i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// The `"series"` member's value object (`{...}`), if the text has one.
pub fn extract_series(text: &str) -> Option<String> {
    let (start, end) = member_span(text)?;
    let member = &text[start..end];
    Some(member[member.find('{')?..].to_string())
}

/// The text with its `"series"` member removed (identity when absent).
pub fn strip_series(text: &str) -> String {
    match member_span(text) {
        Some((start, end)) => format!("{}{}", &text[..start], &text[end..]),
        None => text.to_string(),
    }
}

/// Splices `"series": block` in as the last member of the top-level JSON
/// object, replacing any existing `"series"` member.
pub fn splice_series(text: &str, block: &str) -> String {
    let base = strip_series(text);
    let trimmed = base.trim_end();
    let Some(body) = trimmed.strip_suffix('}') else {
        return format!("{{\n  \"series\": {block}\n}}\n");
    };
    let body = body.trim_end();
    let sep = if body.ends_with('{') { "" } else { "," };
    format!("{body}{sep}\n  \"series\": {block}\n}}\n")
}

/// `BENCH_scale.json` at the repo root.
pub fn scale_json_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: &str =
        "{\n  \"bench\": \"scale_approx\",\n  \"million\": {\"nodes\": 5, \"approx_s\": 1.00}\n}\n";

    #[test]
    fn splice_adds_replaces_and_strips() {
        let block = "{\"speedup\": 3.10, \"detail\": {\"inner\": 1}}";
        let spliced = splice_series(LADDER, block);
        assert!(spliced.contains("\"series\": {\"speedup\": 3.10"));
        assert_eq!(extract_series(&spliced).as_deref(), Some(block));
        // Replacing goes through the same path: one series member only.
        let replaced = splice_series(&spliced, "{\"speedup\": 4.00}");
        assert_eq!(replaced.matches("\"series\"").count(), 1);
        assert!(extract_series(&replaced).unwrap().contains("4.00"));
        // Stripping restores the ladder-only text.
        assert_eq!(strip_series(&replaced), LADDER);
        assert_eq!(strip_series(LADDER), LADDER);
    }

    #[test]
    fn splice_into_missing_or_empty_files_still_yields_json() {
        let out = splice_series("", "{\"speedup\": 1.0}");
        assert!(out.starts_with('{') && out.trim_end().ends_with('}'));
        assert!(extract_series(&out).is_some());
        let out = splice_series("{}\n", "{\"speedup\": 1.0}");
        assert_eq!(out.matches("\"series\"").count(), 1);
    }
}
