//! The probe's output: one flat JSON object of numbers and number lists.

use std::fmt::Write;
use std::time::Duration;

/// A flat JSON object built field by field, in insertion order.
#[derive(Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    pub fn new() -> Json {
        Json::default()
    }

    /// A number (non-finite values are written as 0, which JSON can hold).
    pub fn num(&mut self, name: &str, value: f64) -> &mut Json {
        self.fields.push((name.to_owned(), number(value)));
        self
    }

    /// An exact count.
    pub fn int(&mut self, name: &str, value: u64) -> &mut Json {
        self.fields.push((name.to_owned(), value.to_string()));
        self
    }

    /// A list of samples.
    pub fn list(&mut self, name: &str, values: &[f64]) -> &mut Json {
        let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
        self.fields
            .push((name.to_owned(), format!("[{}]", items.join(","))));
        self
    }

    pub fn render(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{value}");
        }
        s.push('}');
        s
    }
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// Median of `values` (0 for an empty list).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}
