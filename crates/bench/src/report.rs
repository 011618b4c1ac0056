//! Table printing and JSON result records.
//!
//! Every JSON file the harness writes goes through [`canonical_json`]:
//! object keys are sorted recursively and floats are rounded to nine
//! significant digits, so regenerated records diff cleanly PR-over-PR
//! instead of churning on field order or last-bit float noise.

use std::fs;
use std::path::Path;

use serde::Serialize;
use serde_json::Value;

/// A simple fixed-width text table, printed paper-style.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..ncols {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[c], width = widths[c]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Human-readable message size for table rows: `16B`, `128KB`, `4MB`
/// (binary units, truncated).
pub fn fmt_bytes(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{}MB", n >> 20)
    } else if n >= 1024 {
        format!("{}KB", n >> 10)
    } else {
        format!("{n}B")
    }
}

/// Canonicalize a JSON value in place: sort object keys recursively and
/// round finite floats to nine significant digits. Applied to every
/// record the harness writes so output is byte-deterministic across runs
/// and stable under struct-field reordering.
pub fn canonicalize_value(v: &mut Value) {
    match v {
        Value::Float(f) if f.is_finite() => {
            // 9 significant digits: enough to compare runs, few
            // enough to absorb last-bit noise from summation order.
            *f = format!("{f:.8e}").parse().unwrap_or(*f);
        }
        Value::Array(items) => {
            for item in items {
                canonicalize_value(item);
            }
        }
        Value::Object(fields) => {
            for (_, item) in fields.iter_mut() {
                canonicalize_value(item);
            }
            fields.sort_by(|a, b| a.0.cmp(&b.0));
        }
        _ => {}
    }
}

/// Serialize `value` to canonical pretty JSON (sorted keys, rounded
/// floats — see [`canonicalize_value`]).
pub fn canonical_json<T: Serialize>(value: &T) -> Result<String, String> {
    let mut v = serde_json::to_value(value).map_err(|e| format!("{e:?}"))?;
    canonicalize_value(&mut v);
    serde_json::to_string_pretty(&v).map_err(|e| format!("{e:?}"))
}

/// Write a JSON record to `<dir>/<name>.json` (creating the directory).
/// Output is canonical: keys sorted, floats rounded (see
/// [`canonical_json`]).
pub fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match canonical_json(value) {
        Ok(s) => {
            if let Err(e) = fs::write(&path, s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["sys", "TFlops"]);
        t.row(vec!["1hsg_45".into(), "16.05".into()]);
        t.row(vec!["x".into(), "1.2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("TFlops"));
        assert!(lines[2].starts_with("1hsg_45"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn canonical_sorts_keys_and_rounds_floats() {
        let mut v = Value::Object(vec![
            ("zeta".into(), Value::Float(0.123_456_789_123_456_78)),
            (
                "alpha".into(),
                Value::Array(vec![Value::Object(vec![
                    ("b".into(), Value::Int(2)),
                    ("a".into(), Value::Int(1)),
                ])]),
            ),
        ]);
        canonicalize_value(&mut v);
        let Value::Object(fields) = &v else {
            panic!("object stays object")
        };
        assert_eq!(fields[0].0, "alpha");
        assert_eq!(fields[1].0, "zeta");
        let Value::Array(items) = &fields[0].1 else {
            panic!("array stays array")
        };
        let Value::Object(inner) = &items[0] else {
            panic!("nested object")
        };
        assert_eq!(inner[0].0, "a");
        assert_eq!(fields[1].1, Value::Float(0.123_456_789));
    }

    #[test]
    fn canonical_json_is_deterministic() {
        #[derive(Serialize)]
        struct R {
            z: f64,
            a: u32,
        }
        let s1 = canonical_json(&R { z: 1.0 / 3.0, a: 7 }).unwrap();
        let s2 = canonical_json(&R { z: 1.0 / 3.0, a: 7 }).unwrap();
        assert_eq!(s1, s2);
        // Keys emitted in sorted order regardless of declaration order.
        assert!(s1.find("\"a\"").unwrap() < s1.find("\"z\"").unwrap());
    }
}
