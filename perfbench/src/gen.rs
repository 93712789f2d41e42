//! Seeded input generation. Every input of a run is a pure function of
//! `--seed`, so two runs with the same seed see the same operations.

use std::collections::HashMap;

use pvm::prelude::{Column, Row, Schema, Value};
use pvm::types::SchemaRef;

/// SplitMix64: a tiny, well-mixed generator with no dependencies.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`, independent of the others.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Rng(mix(seed, stream))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        finalize(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A short lowercase payload of 8 to 23 characters.
    pub fn payload(&mut self) -> String {
        let len = 8 + self.below(16) as usize;
        (0..len)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stateless hash of two words, for inputs addressed by position.
pub fn mix(a: u64, b: u64) -> u64 {
    finalize(finalize(a).wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// A `(id, join value, payload)` row, the shape of every generated table.
pub fn row3(id: i64, join: i64, payload: String) -> Row {
    Row::new(vec![Value::Int(id), Value::Int(join), Value::Str(payload)])
}

/// The schema of a generated table, with its three column names.
pub fn schema(cols: [&str; 3]) -> SchemaRef {
    Schema::new(vec![
        Column::int(cols[0]),
        Column::int(cols[1]),
        Column::str(cols[2]),
    ])
    .into_ref()
}

/// `n` rows with ids `0..n` and join values uniform in `0..domain`, from
/// stream `stream` of `seed`.
pub fn table_rows(seed: u64, stream: u64, n: u64, domain: u64) -> Vec<Row> {
    let mut rng = Rng::stream(seed, stream);
    (0..n)
        .map(|i| row3(i as i64, rng.below(domain) as i64, rng.payload()))
        .collect()
}

/// Generated rows by join value (column 1), to derive what a read must
/// return.
pub fn by_join_value(rows: &[Row]) -> HashMap<i64, Vec<Row>> {
    let mut m: HashMap<i64, Vec<Row>> = HashMap::new();
    for r in rows {
        let k = r.get(1).and_then(Value::as_int).unwrap_or(i64::MIN);
        m.entry(k).or_default().push(r.clone());
    }
    m
}

/// Row `i` of a delta-side history: a pure function of seed and index,
/// so any batch can be regenerated (and checked) on its own.
pub fn history_row(seed: u64, i: u64, domain: u64) -> Row {
    let mut rng = Rng::stream(seed, 1 << 40 | i);
    row3(i as i64, rng.below(domain) as i64, rng.payload())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::stream(7, 1);
            (0..100).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::stream(7, 1);
            (0..100).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut c = Rng::stream(8, 1);
        assert_ne!(a[0], c.next_u64());
        let mut d = Rng::stream(7, 2);
        assert_ne!(a[0], d.next_u64());
    }
}
