//! The one-line JSON record a repetition prints.
//!
//! The record is a two-level object: named sections, each a flat map of
//! numbers, booleans or strings. Non-finite numbers are written as the
//! `NaN` / `Infinity` literals Python's `json` module reads, so a broken
//! model prediction reaches the output checks instead of being hidden.

use std::fmt::Write;

/// One value of a section.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A measurement or ratio.
    Num(f64),
    /// An exact count.
    Int(u64),
    /// A yes/no fact.
    Bool(bool),
    /// A label.
    Str(String),
}

/// A named, ordered map of values.
#[derive(Debug, Default, Clone)]
pub struct Section {
    entries: Vec<(String, Value)>,
}

impl Section {
    /// Appends a number.
    pub fn num(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.entries.push((key.into(), Value::Num(value)));
        self
    }

    /// Appends a count.
    pub fn int(&mut self, key: impl Into<String>, value: u64) -> &mut Self {
        self.entries.push((key.into(), Value::Int(value)));
        self
    }

    /// Appends a flag.
    pub fn flag(&mut self, key: impl Into<String>, value: bool) -> &mut Self {
        self.entries.push((key.into(), Value::Bool(value)));
        self
    }

    /// Appends a label.
    pub fn text(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.entries.push((key.into(), Value::Str(value.into())));
        self
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(out, key);
            out.push(':');
            match value {
                Value::Num(v) if v.is_nan() => out.push_str("NaN"),
                Value::Num(v) if v.is_infinite() => {
                    out.push_str(if *v > 0.0 { "Infinity" } else { "-Infinity" });
                }
                Value::Num(v) => write!(out, "{v:?}").expect("writing to a String"),
                Value::Int(v) => write!(out, "{v}").expect("writing to a String"),
                Value::Bool(v) => write!(out, "{v}").expect("writing to a String"),
                Value::Str(v) => write_string(out, v),
            }
        }
        out.push('}');
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A whole record: sections in insertion order.
#[derive(Debug, Default)]
pub struct Record {
    sections: Vec<(&'static str, Section)>,
}

impl Record {
    /// The section named `name`, created on first use.
    pub fn section(&mut self, name: &'static str) -> &mut Section {
        if let Some(i) = self.sections.iter().position(|(n, _)| *n == name) {
            return &mut self.sections[i].1;
        }
        self.sections.push((name, Section::default()));
        &mut self.sections.last_mut().expect("just pushed").1
    }

    /// The record as one line of JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, section)) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(&mut out, name);
            out.push(':');
            section.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serializes_sections_in_order() {
        let mut record = Record::default();
        record.section("timing").num("sim_s", 1.5).int("rounds", 3);
        record
            .section("facts")
            .flag("ok", true)
            .text("name", "a\"b");
        record.section("timing").num("bad", f64::NAN);
        assert_eq!(
            record.to_json(),
            r#"{"timing":{"sim_s":1.5,"rounds":3,"bad":NaN},"facts":{"ok":true,"name":"a\"b"}}"#
        );
    }
}
