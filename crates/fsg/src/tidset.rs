//! Bitset TID lists for the all-parents intersection in candidate
//! counting.
//!
//! Downward closure bounds a candidate's supporting set by the
//! intersection of *every* parent's TID list. The sorted-merge
//! intersection is `O(a + b)` data-dependent branches per parent pair; a
//! `u64` bitset over the transaction universe replaces that with
//! `O(universe / 64)` branchless AND+popcount words. Dense lists (the
//! common case at low support on transportation splits, where frequent
//! patterns occur in most transactions) amortize the word scan across
//! ≥ 64 TIDs per word; sparse lists over a large universe would mostly
//! AND empty words, so the miner keeps the sorted path for them — see
//! [`use_bitset`] for the crossover.
//!
//! Materializing the AND result ascending yields exactly the sorted
//! merge's output (both compute the same set, both emit ascending), so
//! the density-driven choice between the two paths never changes what
//! is mined — the brute-force oracle suite (`tests/oracle.rs`) pins the
//! mined supports and TID lists.

/// A TID outside the declared transaction universe was passed to
/// [`TidBitset::try_from_sorted`]. Carries both sides of the violated
/// bound so the failure is diagnosable at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TidOutOfUniverse {
    /// The offending transaction id.
    pub tid: u32,
    /// The universe size it must be strictly below.
    pub universe: usize,
}

impl std::fmt::Display for TidOutOfUniverse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TID {} out of universe (expected < {})",
            self.tid, self.universe
        )
    }
}

impl std::error::Error for TidOutOfUniverse {}

/// Fixed-universe TID bitset: bit `t` of `words[t / 64]` is transaction
/// `t`'s membership.
#[derive(Debug)]
pub struct TidBitset {
    words: Vec<u64>,
}

impl TidBitset {
    /// Builds the bitset of `tids` over a `universe`-transaction set.
    ///
    /// Caller contract: every TID must be `< universe`. The miner
    /// upholds this by construction — TID lists index the transaction
    /// slice whose length is the universe — so violations are logic
    /// bugs, reported as a panic that names the offending TID and the
    /// bound (not an uncontextualized slice-index panic).
    pub fn from_sorted(tids: &[u32], universe: usize) -> TidBitset {
        Self::try_from_sorted(tids, universe)
            .unwrap_or_else(|e| panic!("TidBitset::from_sorted: {e}"))
    }

    /// As [`TidBitset::from_sorted`], surfacing an out-of-universe TID
    /// as a typed error instead of panicking — for callers building
    /// bitsets from data they did not derive themselves.
    pub fn try_from_sorted(tids: &[u32], universe: usize) -> Result<TidBitset, TidOutOfUniverse> {
        let mut words = vec![0u64; universe.div_ceil(64)];
        for &t in tids {
            if (t as usize) >= universe {
                return Err(TidOutOfUniverse { tid: t, universe });
            }
            words[t as usize / 64] |= 1u64 << (t % 64);
        }
        Ok(TidBitset { words })
    }

    /// The backing words, low TIDs first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Density crossover: a bitset pays off when the word scan is no longer
/// than the list it replaces — `universe / 64` words against `len`
/// comparisons, i.e. average density ≥ 1 TID per word. Below that the
/// AND touches mostly-empty words and the sorted merge's early exit
/// wins; at or above it the branchless scan wins (measured ~2x on the
/// bench workloads, whose universes fit in one word). Memory stays
/// bounded too: at the crossover the bitset is at most twice the `u32`
/// list's size.
pub fn use_bitset(len: usize, universe: usize) -> bool {
    len > 0 && universe.div_ceil(64) <= len
}

/// In-place AND: `acc &= other`. Both sides must cover the same
/// universe.
pub fn and_words(acc: &mut [u64], other: &[u64]) {
    debug_assert_eq!(acc.len(), other.len());
    for (a, &b) in acc.iter_mut().zip(other) {
        *a &= b;
    }
}

/// Expands a word array back into an ascending TID list — identical to
/// what the sorted-merge intersection of the same sets would emit.
pub fn materialize(words: &[u64]) -> Vec<u32> {
    let mut out = Vec::with_capacity(words.iter().map(|w| w.count_ones() as usize).sum());
    for (wi, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            out.push(wi as u32 * 64 + w.trailing_zeros());
            w &= w - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|x| b.contains(x)).collect()
    }

    #[test]
    fn round_trip_preserves_sorted_list() {
        let tids = vec![0, 3, 63, 64, 65, 200];
        let bs = TidBitset::from_sorted(&tids, 201);
        assert_eq!(materialize(bs.words()), tids);
    }

    #[test]
    fn and_matches_sorted_merge() {
        // Deterministic pseudo-random lists across several word
        // boundaries.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |m: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as u32
        };
        for universe in [1usize, 63, 64, 65, 300] {
            let mut a: Vec<u32> = (0..universe / 2 + 1)
                .map(|_| next(universe as u32))
                .collect();
            let mut b: Vec<u32> = (0..universe / 3 + 1)
                .map(|_| next(universe as u32))
                .collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let mut acc = TidBitset::from_sorted(&a, universe).words().to_vec();
            and_words(&mut acc, TidBitset::from_sorted(&b, universe).words());
            assert_eq!(
                materialize(&acc),
                sorted_intersect(&a, &b),
                "universe={universe}"
            );
        }
    }

    /// Regression: an out-of-universe TID used to be an
    /// uncontextualized slice-index panic (or, for TIDs inside the last
    /// word, a silently-set ghost bit beyond the universe). Now it is a
    /// typed error naming both sides of the violated bound.
    #[test]
    fn out_of_universe_tid_is_a_typed_error() {
        let err = TidBitset::try_from_sorted(&[0, 3, 200], 100).unwrap_err();
        assert_eq!(
            err,
            TidOutOfUniverse {
                tid: 200,
                universe: 100
            }
        );
        assert_eq!(err.to_string(), "TID 200 out of universe (expected < 100)");
        // In-word but out-of-universe (universe 5 → one word, TID 7
        // fits the word): rejected, never a ghost bit.
        let err = TidBitset::try_from_sorted(&[7], 5).unwrap_err();
        assert_eq!(err.tid, 7);
        // Valid inputs still round-trip.
        let ok = TidBitset::try_from_sorted(&[0, 3, 99], 100).unwrap();
        assert_eq!(materialize(ok.words()), vec![0, 3, 99]);
    }

    /// The infallible constructor upholds the documented contract with
    /// a contextual panic, not a bare index-out-of-bounds.
    #[test]
    #[should_panic(expected = "TID 200 out of universe (expected < 100)")]
    fn from_sorted_panics_with_context() {
        let _ = TidBitset::from_sorted(&[200], 100);
    }

    /// Pins the density crossover: one TID per 64-transaction word.
    #[test]
    fn crossover_is_one_tid_per_word() {
        // Tiny universes (≤ 64 transactions → 1 word) always take the
        // bitset path for any non-empty list — the bench workloads.
        assert!(use_bitset(1, 4));
        assert!(use_bitset(1, 64));
        assert!(!use_bitset(0, 64), "empty list has nothing to intersect");
        // 129 transactions → 3 words: a 2-TID list stays sorted, a 3-TID
        // list crosses over.
        assert!(!use_bitset(2, 129));
        assert!(use_bitset(3, 129));
        // Dense lists over big universes qualify.
        assert!(use_bitset(1000, 4096));
    }
}
