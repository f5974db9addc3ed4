//! The columnar output arena: one contiguous byte buffer plus an offsets
//! table.
//!
//! A [`BatchOutput`] is the destination of every batch conversion: the
//! rendered texts of all values live back-to-back in [`BatchOutput::arena`],
//! and entry `i` is the byte range `offsets[i]..offsets[i + 1]`. This is the
//! classic columnar (Arrow-style) string layout — one allocation for a
//! million values instead of a million `String`s — and it is what lets a
//! warmed formatter run with zero steady-state heap allocation: clearing the
//! arena keeps its capacity, so the next batch of similar size reuses it.

/// Columnar result of a batch conversion: a contiguous text arena plus a
/// fence-post offsets table.
///
/// After formatting `n` values the offsets table holds `n + 1` entries with
/// `offsets[0] == 0` and `offsets[n] == arena.len()`; value `i` occupies
/// `arena[offsets[i] as usize..offsets[i + 1] as usize]`.
///
/// Offsets are `u32`, capping one batch arena at 4 GiB (a batch of one
/// hundred million doubles at worst-case length; split larger exports into
/// multiple batches).
///
/// ```
/// use fpp_batch::{BatchFormatter, BatchOutput};
/// let mut fmt = BatchFormatter::new();
/// let mut out = BatchOutput::new();
/// fmt.format_f64s(&[0.1, 1e23, -0.5], &mut out);
/// assert_eq!(out.len(), 3);
/// assert_eq!(out.get(1), "1e23");
/// assert_eq!(out.iter().collect::<Vec<_>>(), ["0.1", "1e23", "-0.5"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchOutput {
    /// All rendered texts, back to back.
    pub(crate) bytes: Vec<u8>,
    /// Fence-post offsets into `bytes` (`len + 1` entries once non-empty).
    pub(crate) offsets: Vec<u32>,
}

impl BatchOutput {
    /// Creates an empty output (no capacity reserved yet).
    #[must_use]
    pub fn new() -> Self {
        BatchOutput::default()
    }

    /// Creates an output pre-sized for `values` entries totalling about
    /// `arena_bytes` of text, so the first batch needs no mid-run growth.
    #[must_use]
    pub fn with_capacity(values: usize, arena_bytes: usize) -> Self {
        BatchOutput {
            bytes: Vec::with_capacity(arena_bytes),
            offsets: Vec::with_capacity(values + 1),
        }
    }

    /// Number of formatted values held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the output holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The contiguous text arena (every value's bytes, back to back).
    #[must_use]
    pub fn arena(&self) -> &[u8] {
        &self.bytes
    }

    /// The fence-post offsets table (`len() + 1` entries when non-empty).
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Total bytes of rendered text.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The bytes of value `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn bytes_of(&self, i: usize) -> &[u8] {
        assert!(i < self.len(), "fpp_batch: value index out of range");
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The text of value `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` (the pipeline only ever emits ASCII, so the
    /// UTF-8 conversion itself cannot fail).
    #[must_use]
    pub fn get(&self, i: usize) -> &str {
        std::str::from_utf8(self.bytes_of(i)).expect("batch output is UTF-8")
    }

    /// Iterates the formatted texts in input order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Clears the output, keeping both buffers' capacity (the point of
    /// reusing one `BatchOutput` across batches).
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.offsets.clear();
    }

    /// Starts a fresh batch: clears and writes the leading fence post.
    pub(crate) fn begin(&mut self) {
        self.clear();
        self.offsets.push(0);
    }

    /// The arena as a sink for the conversion pipeline to append into.
    pub(crate) fn sink(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Closes the entry in progress by writing its end fence post.
    ///
    /// # Panics
    ///
    /// Panics if the arena has grown past the 4 GiB `u32` offset range.
    pub(crate) fn seal(&mut self) {
        let end = u32::try_from(self.bytes.len())
            .expect("fpp_batch: arena exceeds the 4 GiB u32 offset range; split the batch");
        self.offsets.push(end);
    }

    /// Appends another output's entries after this one's, shifting its
    /// offsets — the stitch step of the sharded path.
    pub(crate) fn append_shifted(&mut self, shard: &BatchOutput) {
        debug_assert!(
            !self.offsets.is_empty(),
            "append_shifted requires begin() first"
        );
        let base = u32::try_from(self.bytes.len())
            .expect("fpp_batch: arena exceeds the 4 GiB u32 offset range; split the batch");
        self.bytes.extend_from_slice(&shard.bytes);
        self.offsets
            .extend(shard.offsets.iter().skip(1).map(|&off| base + off));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(entries: &[&str]) -> BatchOutput {
        let mut out = BatchOutput::new();
        out.begin();
        for e in entries {
            out.sink().extend_from_slice(e.as_bytes());
            out.seal();
        }
        out
    }

    #[test]
    fn empty_output_has_no_values() {
        let out = BatchOutput::new();
        assert_eq!(out.len(), 0);
        assert!(out.is_empty());
        assert!(out.arena().is_empty());
        assert!(out.offsets().is_empty());
        assert_eq!(out.iter().count(), 0);
    }

    #[test]
    fn entries_are_recoverable() {
        let out = filled(&["0.1", "1e23", "-0"]);
        assert_eq!(out.len(), 3);
        assert_eq!(out.get(0), "0.1");
        assert_eq!(out.bytes_of(1), b"1e23");
        assert_eq!(out.get(2), "-0");
        assert_eq!(out.arena(), b"0.11e23-0");
        assert_eq!(out.offsets(), &[0, 3, 7, 9]);
        assert_eq!(out.total_bytes(), 9);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut out = filled(&["12345", "67890"]);
        let bytes_cap = out.bytes.capacity();
        let offsets_cap = out.offsets.capacity();
        out.clear();
        assert!(out.is_empty());
        assert_eq!(out.bytes.capacity(), bytes_cap);
        assert_eq!(out.offsets.capacity(), offsets_cap);
    }

    #[test]
    fn append_shifted_stitches_in_order() {
        let a = filled(&["1", "22"]);
        let b = filled(&["333"]);
        let mut out = BatchOutput::new();
        out.begin();
        out.append_shifted(&a);
        out.append_shifted(&b);
        assert_eq!(out.iter().collect::<Vec<_>>(), ["1", "22", "333"]);
        assert_eq!(out.offsets(), &[0, 1, 3, 6]);
    }

    #[test]
    #[should_panic(expected = "value index out of range")]
    fn out_of_range_get_panics() {
        let out = filled(&["1"]);
        let _ = out.get(1);
    }
}
