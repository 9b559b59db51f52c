//! Minimal hand-rolled JSON helpers for the golden summary files.
//!
//! The workspace is offline (no serde), and the golden format is
//! line-oriented with a fixed, self-written schema — so all that is
//! needed is field extraction by name from a single JSON object line,
//! plus string escaping. Parsers here are *tolerant*: any malformed input
//! yields `None`, never a panic, so a damaged golden file fails the gate
//! with a message instead of aborting it.

/// Escapes a string for embedding in a JSON string literal. Only the
/// characters our writers can actually emit need handling; anything else
/// exotic (control characters) is escaped as `\u00XX` for safety.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]. Returns `None` on a malformed escape sequence.
pub(crate) fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'u' => {
                let hex: String = (0..4).map(|_| chars.next()).collect::<Option<String>>()?;
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// The raw text of field `name` in the single-object JSON `line`: for a
/// string field the *escaped* contents between the quotes, for anything
/// else the token up to the next top-level `,`, `}`, or `]`.
fn field_raw<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let mut escaped = false;
        for (i, c) in stripped.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => return Some(&stripped[..i]),
                _ => {}
            }
        }
        None
    } else {
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// A string field, unescaped.
pub(crate) fn field_str(line: &str, name: &str) -> Option<String> {
    unescape(field_raw(line, name)?)
}

/// An unsigned integer field.
pub(crate) fn field_u64(line: &str, name: &str) -> Option<u64> {
    field_raw(line, name)?.parse().ok()
}

/// An integer field (either signedness) that may be `null`. Outer `None`
/// = malformed or absent; `Some(None)` = present and `null`.
pub(crate) fn field_opt<T: std::str::FromStr>(line: &str, name: &str) -> Option<Option<T>> {
    match field_raw(line, name)? {
        "null" => Some(None),
        raw => raw.parse().ok().map(Some),
    }
}

/// Renders an optional integer (either signedness) as a JSON token.
pub(crate) fn opt_token<T: std::fmt::Display>(value: Option<T>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrips() {
        for s in [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "ctrl\u{1}char",
            "",
        ] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
    }

    #[test]
    fn field_extraction() {
        let line = r#"{"name":"a/b \"c\"","case":3,"decided":null,"worst":17,"lat":-9}"#;
        assert_eq!(field_str(line, "name").as_deref(), Some(r#"a/b "c""#));
        assert_eq!(field_u64(line, "case"), Some(3));
        assert_eq!(field_opt::<u64>(line, "decided"), Some(None));
        assert_eq!(field_opt::<u64>(line, "worst"), Some(Some(17)));
        assert_eq!(field_opt::<i64>(line, "decided"), Some(None));
        assert_eq!(field_opt::<i64>(line, "lat"), Some(Some(-9)));
        assert_eq!(opt_token(Some(-3i64)), "-3");
        assert_eq!(opt_token::<u64>(None), "null");
        assert_eq!(field_u64(line, "missing"), None);
    }

    #[test]
    fn malformed_inputs_yield_none() {
        assert_eq!(field_str(r#"{"name":"unterminated"#, "name"), None);
        assert_eq!(field_u64(r#"{"case":noise}"#, "case"), None);
        assert_eq!(unescape("bad \\q escape"), None);
        assert_eq!(unescape("trunc \\u00"), None);
    }
}
