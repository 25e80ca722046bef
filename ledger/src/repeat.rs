//! The exact-repeat guard: every value that must not depend on the
//! machine — counts, modeled times, recall, precision, digests — is
//! recorded per `(workload, seed, seconds)` and compared with the
//! previous run's record. Any difference is a behaviour change, and the
//! run fails.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Deterministic values of one run, by name, in a stable text form.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fingerprint(BTreeMap<String, String>);

impl Fingerprint {
    /// Records an integer count.
    pub fn count(&mut self, name: &str, v: u64) {
        self.0.insert(name.to_string(), v.to_string());
    }

    /// Records a float exactly (its bit pattern), so "equal" means equal.
    pub fn exact(&mut self, name: &str, v: f64) {
        self.0
            .insert(name.to_string(), format!("{v} {:016x}", v.to_bits()));
    }

    /// Records a 64-bit digest.
    pub fn digest(&mut self, name: &str, v: u64) {
        self.0.insert(name.to_string(), format!("{v:016x}"));
    }

    fn render(&self) -> String {
        self.0.iter().map(|(k, v)| format!("{k} = {v}\n")).collect()
    }

    fn parse(text: &str) -> Self {
        Self(
            text.lines()
                .filter_map(|l| l.split_once(" = "))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    /// Names whose values differ from `prev` (or exist on one side only).
    pub fn diff(&self, prev: &Fingerprint) -> Vec<String> {
        let mut names: Vec<&String> = self.0.keys().chain(prev.0.keys()).collect();
        names.sort();
        names.dedup();
        names
            .into_iter()
            .filter(|k| self.0.get(*k) != prev.0.get(*k))
            .map(|k| {
                format!(
                    "{k}: previous {:?}, now {:?}",
                    prev.0.get(k).map(String::as_str).unwrap_or("-"),
                    self.0.get(k).map(String::as_str).unwrap_or("-")
                )
            })
            .collect()
    }
}

/// Compares `fp` with the record at `dir/<key>.txt`, then stores `fp`
/// there when no record existed. Returns the differences (empty when the
/// run repeats its previous record exactly, or when it is the first).
pub fn check(dir: &Path, key: &str, fp: &Fingerprint) -> std::io::Result<Vec<String>> {
    let path: PathBuf = dir.join(format!("{key}.txt"));
    match fs::read_to_string(&path) {
        Ok(text) => Ok(fp.diff(&Fingerprint::parse(&text))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            fs::create_dir_all(dir)?;
            let tmp = path.with_extension("tmp");
            fs::write(&tmp, fp.render())?;
            fs::rename(&tmp, &path)?;
            Ok(Vec::new())
        }
        Err(e) => Err(e),
    }
}

/// FNV-1a, 64 bits: a stable digest of output bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
