//! The known-material hash list.

use crate::SAFETY_MATCH_THRESHOLD;
use imagesim::RobustHash;
use serde::{Deserialize, Serialize};

/// IWF severity grading of verified material (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Category A: penetrative sexual activity and the most severe classes.
    A,
    /// Category B: non-penetrative sexual activity.
    B,
    /// Category C: other indecent images.
    C,
}

/// One hash-list entry.
///
/// The paper distinguishes matches the IWF could *action* (age verified;
/// 61 URLs over two victims) from matches contributed by other
/// organisations that "were not actionable … since they were not able to
/// verify the age of the persons depicted". `verifiable` captures that.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HashListEntry {
    /// Robust hash of the known image.
    pub hash: RobustHash,
    /// Opaque victim/case identifier (groups entries of the same victim).
    pub case: u32,
    /// Whether the hotline can verify and action this entry.
    pub verifiable: bool,
    /// Severity grade, present only for verifiable entries.
    pub severity: Option<Severity>,
}

/// The hash list with threshold matching.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HashList {
    entries: Vec<HashListEntry>,
}

impl HashList {
    /// An empty list.
    pub fn new() -> HashList {
        HashList::default()
    }

    /// Adds an entry. Verifiable entries must carry a severity; the
    /// constructor enforces the invariant.
    pub fn add(&mut self, entry: HashListEntry) {
        assert_eq!(
            entry.verifiable,
            entry.severity.is_some(),
            "severity present iff verifiable"
        );
        self.entries.push(entry);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every entry, in insertion order.
    pub fn entries(&self) -> &[HashListEntry] {
        &self.entries
    }

    /// Matches `hash` against the list at the safety threshold, returning
    /// the closest entry if any qualifies.
    pub fn match_hash(&self, hash: &RobustHash) -> Option<&HashListEntry> {
        self.entries
            .iter()
            .map(|e| (hash.distance(&e.hash), e))
            .filter(|&(d, _)| d <= SAFETY_MATCH_THRESHOLD)
            .min_by_key(|&(d, _)| d)
            .map(|(_, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagesim::{ImageClass, ImageSpec, Transform};

    fn spec(v: u64) -> ImageSpec {
        ImageSpec::model_photo(ImageClass::ModelNude, 77_000 + v as u32, v)
    }

    fn entry(v: u64, verifiable: bool) -> HashListEntry {
        HashListEntry {
            hash: RobustHash::of(&spec(v).render()),
            case: v as u32,
            verifiable,
            severity: verifiable.then_some(Severity::B),
        }
    }

    #[test]
    fn exact_match_is_found() {
        let mut list = HashList::new();
        list.add(entry(1, true));
        let hit = list.match_hash(&RobustHash::of(&spec(1).render()));
        assert!(hit.is_some());
        assert_eq!(hit.unwrap().case, 1);
    }

    #[test]
    fn recompressed_copy_still_matches() {
        let mut list = HashList::new();
        list.add(entry(2, false));
        let edited = Transform::Noise {
            amplitude: 3,
            seed: 4,
        }
        .apply(&spec(2).render());
        assert!(list.match_hash(&RobustHash::of(&edited)).is_some());
    }

    #[test]
    fn mirrored_copy_evades() {
        let mut list = HashList::new();
        list.add(entry(3, true));
        let mirrored = Transform::MirrorHorizontal.apply(&spec(3).render());
        assert!(list.match_hash(&RobustHash::of(&mirrored)).is_none());
    }

    #[test]
    fn unrelated_image_never_matches() {
        let mut list = HashList::new();
        for v in 0..30 {
            list.add(entry(v, v % 2 == 0));
        }
        let unrelated = ImageSpec::model_photo(ImageClass::ModelNude, 5, 999).render();
        assert!(list.match_hash(&RobustHash::of(&unrelated)).is_none());
    }

    #[test]
    fn closest_entry_wins() {
        let base = spec(4).render();
        let mut list = HashList::new();
        list.add(HashListEntry {
            hash: RobustHash::of(
                &Transform::Noise {
                    amplitude: 10,
                    seed: 1,
                }
                .apply(&base),
            ),
            case: 10,
            verifiable: false,
            severity: None,
        });
        list.add(HashListEntry {
            hash: RobustHash::of(&base),
            case: 20,
            verifiable: false,
            severity: None,
        });
        assert_eq!(list.match_hash(&RobustHash::of(&base)).unwrap().case, 20);
    }

    #[test]
    #[should_panic(expected = "severity present iff verifiable")]
    fn invariant_enforced() {
        let mut list = HashList::new();
        list.add(HashListEntry {
            hash: RobustHash::of(&spec(9).render()),
            case: 9,
            verifiable: true,
            severity: None,
        });
    }
}
