//! Output oracles and the order-free output fingerprint.
//!
//! Each workload's job output is checked against a reference computed
//! without the runner, the carrier or the lookup cache: `q3_cache` against
//! the repository's serial `tpch::q3_reference`, `q9_warm` against the
//! serial Q9 evaluator below, and `q3_gray` against both the Q3 reference
//! and the exact output multiset of the quiet `q3_cache` job.

use std::collections::BTreeMap;

use efind_common::{Datum, Record};
use efind_workloads::tpch::{self, TpchData, Q9_COLOR};

/// Expected job output: `key → value` with a float tolerance, and
/// optionally the exact fingerprint a run must reproduce.
pub struct Oracle {
    expected: BTreeMap<Datum, f64>,
    exact: Option<u64>,
}

impl Oracle {
    /// Q3 answers from the repository's serial reference.
    pub fn q3(data: &TpchData) -> Oracle {
        Oracle {
            expected: tpch::q3_reference(data).into_iter().collect(),
            exact: None,
        }
    }

    /// Q9 answers from [`q9_serial`].
    pub fn q9(data: &TpchData) -> Oracle {
        Oracle {
            expected: q9_serial(data),
            exact: None,
        }
    }

    /// Additionally requires the output to be exactly the multiset whose
    /// fingerprint is `fp`.
    pub fn with_exact(mut self, fp: u64) -> Oracle {
        self.exact = Some(fp);
        self
    }

    /// Checks one job output; `Err` names the first difference.
    pub fn check(&self, output: &[Record]) -> Result<(), String> {
        if let Some(fp) = self.exact {
            let got = fingerprint(output);
            if got != fp {
                return Err(format!(
                    "output multiset {got:016x} differs from the quiet run's {fp:016x}"
                ));
            }
        }
        if output.len() != self.expected.len() {
            return Err(format!(
                "{} output rows, reference has {}",
                output.len(),
                self.expected.len()
            ));
        }
        for r in output {
            let Some(&want) = self.expected.get(&r.key) else {
                return Err(format!("unexpected output key {:?}", r.key));
            };
            let got = r.value.as_float().unwrap_or(f64::NAN);
            // Summation order differs between the reducer and the serial
            // reference, so totals agree to rounding only.
            if got.is_nan() || (got - want).abs() > 1e-9 * want.abs().max(1.0) {
                return Err(format!("{:?}: got {got}, reference {want}", r.key));
            }
        }
        Ok(())
    }
}

/// Serial index-nested-loop evaluation of the Q9 job's semantics: for every
/// LineItem, probe Supplier, Part (name contains the colour), PartSupp,
/// Orders and Nation in turn; group by `(nation name, order year)` and sum
/// `extendedprice · (1 − discount) − supplycost · quantity`.
pub fn q9_serial(data: &TpchData) -> BTreeMap<Datum, f64> {
    let index = |rows: &[(Datum, Vec<Datum>)]| -> BTreeMap<Datum, Vec<Datum>> {
        rows.iter().cloned().collect()
    };
    let supplier = index(&data.supplier);
    let part = index(&data.part);
    let partsupp = index(&data.partsupp);
    let orders = index(&data.orders);
    let nation = index(&data.nation);

    let mut out: BTreeMap<Datum, f64> = BTreeMap::new();
    for rec in &data.lineitem {
        let Some(l) = rec.value.as_list() else {
            continue;
        };
        let (orderkey, partkey, suppkey) = (&l[0], &l[1], &l[2]);
        let num = |d: &Datum| d.as_float().unwrap_or(0.0);
        let Some(s) = supplier.get(suppkey) else {
            continue;
        };
        let Some(p) = part.get(partkey) else { continue };
        if !p[0].as_text().is_some_and(|name| name.contains(Q9_COLOR)) {
            continue;
        }
        let ps_key = Datum::List(vec![partkey.clone(), suppkey.clone()]);
        let Some(ps) = partsupp.get(&ps_key) else {
            continue;
        };
        let Some(o) = orders.get(orderkey) else {
            continue;
        };
        let Some(n) = nation.get(&s[1]) else { continue };
        let year = Datum::Int(o[1].as_int().unwrap_or(0) / 365);
        let amount = num(&l[4]) * (1.0 - num(&l[5])) - num(&ps[0]) * num(&l[3]);
        *out.entry(Datum::List(vec![n[0].clone(), year]))
            .or_insert(0.0) += amount;
    }
    out
}

/// FNV-1a over a canonical byte encoding of the sorted records: equal for
/// equal output multisets, whatever order the reducers wrote them in.
pub fn fingerprint(output: &[Record]) -> u64 {
    let mut sorted: Vec<&Record> = output.iter().collect();
    sorted.sort();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for r in sorted {
        h.datum(&r.key);
        h.datum(&r.value);
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn datum(&mut self, d: &Datum) {
        match d {
            Datum::Null => self.bytes(&[0]),
            Datum::Bool(b) => self.bytes(&[1, *b as u8]),
            Datum::Int(i) => {
                self.bytes(&[2]);
                self.bytes(&i.to_le_bytes());
            }
            Datum::Float(f) => {
                self.bytes(&[3]);
                self.bytes(&f.to_bits().to_le_bytes());
            }
            Datum::Text(s) => {
                self.bytes(&[4]);
                self.bytes(&(s.len() as u64).to_le_bytes());
                self.bytes(s.as_bytes());
            }
            Datum::Bytes(b) => {
                self.bytes(&[5]);
                self.bytes(&(b.len() as u64).to_le_bytes());
                self.bytes(b);
            }
            Datum::List(items) => {
                self.bytes(&[6]);
                self.bytes(&(items.len() as u64).to_le_bytes());
                for item in items {
                    self.datum(item);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efind_workloads::tpch::{generate, TpchConfig};

    #[test]
    fn fingerprint_ignores_order_but_not_bits() {
        let a = Record::new(1i64, 2.5);
        let b = Record::new(2i64, 3.5);
        assert_eq!(
            fingerprint(&[a.clone(), b.clone()]),
            fingerprint(&[b.clone(), a.clone()])
        );
        let b2 = Record::new(2i64, 3.5 + f64::EPSILON * 4.0);
        assert_ne!(fingerprint(&[a.clone(), b]), fingerprint(&[a, b2]));
    }

    #[test]
    fn q9_serial_matches_a_brute_force_join() {
        let data = generate(&TpchConfig {
            scale: 0.002,
            dup_lineitem: 1,
            chunks: 4,
            seed: 11,
        });
        let fast = q9_serial(&data);
        assert!(!fast.is_empty());
        // Brute force over the first few hundred lineitems: scan every table
        // for each row, no maps at all.
        let mut slow: BTreeMap<Datum, f64> = BTreeMap::new();
        let take = 300;
        for rec in data.lineitem.iter().take(take) {
            let l = rec.value.as_list().unwrap();
            let find = |rows: &[(Datum, Vec<Datum>)], k: &Datum| {
                rows.iter().find(|(rk, _)| rk == k).map(|(_, v)| v.clone())
            };
            let (Some(s), Some(p)) = (find(&data.supplier, &l[2]), find(&data.part, &l[1])) else {
                continue;
            };
            if !p[0].as_text().unwrap().contains(Q9_COLOR) {
                continue;
            }
            let ps = find(
                &data.partsupp,
                &Datum::List(vec![l[1].clone(), l[2].clone()]),
            )
            .unwrap();
            let o = find(&data.orders, &l[0]).unwrap();
            let n = find(&data.nation, &s[1]).unwrap();
            let key = Datum::List(vec![n[0].clone(), Datum::Int(o[1].as_int().unwrap() / 365)]);
            let f = |d: &Datum| d.as_float().unwrap();
            *slow.entry(key).or_insert(0.0) += f(&l[4]) * (1.0 - f(&l[5])) - f(&ps[0]) * f(&l[3]);
        }
        let prefix = TpchData {
            lineitem: data.lineitem[..take].to_vec(),
            orders: data.orders.clone(),
            customer: data.customer.clone(),
            supplier: data.supplier.clone(),
            part: data.part.clone(),
            partsupp: data.partsupp.clone(),
            nation: data.nation.clone(),
        };
        assert_eq!(q9_serial(&prefix), slow);
    }

    #[test]
    fn oracle_rejects_a_wrong_total() {
        let data = generate(&TpchConfig {
            scale: 0.002,
            dup_lineitem: 1,
            chunks: 4,
            seed: 5,
        });
        let oracle = Oracle::q3(&data);
        let mut rows: Vec<Record> = oracle
            .expected
            .iter()
            .map(|(k, v)| Record::new(k.clone(), *v))
            .collect();
        assert!(oracle.check(&rows).is_ok());
        rows[0].value = Datum::Float(rows[0].value.as_float().unwrap() + 1.0);
        assert!(oracle.check(&rows).is_err());
        rows.pop();
        assert!(oracle.check(&rows).is_err());
    }
}
