//! Output sinks: where rendered characters go.
//!
//! The conversion pipeline emits text as short runs of bytes (digit runs,
//! separators, the exponent field); [`DigitSink`] abstracts the destination so the same rendering code
//! serves heap strings, caller-provided stack buffers and [`core::fmt`]
//! writers. The bundled implementations:
//!
//! * `Vec<u8>` — growable heap output (what the `String`-returning
//!   conveniences use).
//! * [`SliceSink`] — a fixed caller-provided buffer, for allocation-free
//!   formatting (see the `alloc_count` regression test).
//! * [`FmtSink`] — adapts any [`std::fmt::Write`], e.g. `&mut String` or a
//!   `Formatter`.

/// A byte-oriented output sink for rendered numbers.
///
/// Implementations receive ASCII via [`push`](DigitSink::push) and
/// well-formed UTF-8 runs via [`push_slice`](DigitSink::push_slice) (the
/// renderer only ever pushes runs of complete encoded characters: digit
/// runs, separators, the exponent field), so text-based sinks can decode
/// safely.
pub trait DigitSink {
    /// Appends one ASCII byte.
    fn push(&mut self, byte: u8);

    /// Appends a run of bytes forming well-formed UTF-8.
    fn push_slice(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.push(b);
        }
    }
}

impl DigitSink for Vec<u8> {
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }

    /// Grows to a power of two, so the capacity follows the total length
    /// written and not how it was split into runs: with plain doubling, a
    /// whole text pushed at once would seed every later capacity with its
    /// own length, and a reused buffer's size would vary with its input.
    fn push_slice(&mut self, bytes: &[u8]) {
        let need = self.len() + bytes.len();
        if need > self.capacity() {
            self.reserve_exact(need.next_power_of_two() - self.len());
        }
        self.extend_from_slice(bytes);
    }
}

/// A sink writing into a caller-provided byte buffer — the allocation-free
/// destination for the `write_*` APIs.
///
/// ```
/// use fpp_core::{write_shortest, DtoaContext, SliceSink};
/// let mut ctx = DtoaContext::new(10);
/// let mut buf = [0u8; 32];
/// let mut sink = SliceSink::new(&mut buf);
/// write_shortest(&mut ctx, &mut sink, 0.3);
/// assert_eq!(sink.as_str(), "0.3");
/// ```
///
/// # Panics
///
/// Panics on overflow: the buffer must be large enough for the full output
/// (32 bytes covers every shortest-form `f64` in bases ≥ 10; base 2 or deep
/// fixed formats need proportionally more).
#[derive(Debug)]
pub struct SliceSink<'a> {
    buf: &'a mut [u8],
    len: usize,
}

impl<'a> SliceSink<'a> {
    /// Wraps a buffer; output starts at its beginning.
    #[must_use]
    pub fn new(buf: &'a mut [u8]) -> Self {
        SliceSink { buf, len: 0 }
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn written(&self) -> usize {
        self.len
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// The output as text.
    ///
    /// # Panics
    ///
    /// Panics if the sink holds invalid UTF-8 (cannot happen through the
    /// rendering pipeline, which writes whole encoded characters).
    #[must_use]
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("sink output is UTF-8")
    }

    /// Resets the sink to empty, keeping the buffer.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl DigitSink for SliceSink<'_> {
    fn push(&mut self, byte: u8) {
        assert!(self.len < self.buf.len(), "fpp_core: SliceSink overflow");
        self.buf[self.len] = byte;
        self.len += 1;
    }

    fn push_slice(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        assert!(end <= self.buf.len(), "fpp_core: SliceSink overflow");
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }
}

/// Adapts a [`std::fmt::Write`] (e.g. `&mut String`, a `Formatter`) as a
/// [`DigitSink`]. Write errors are latched and reported by
/// [`finish`](FmtSink::finish) rather than unwinding mid-render.
///
/// ```
/// use fpp_core::{write_shortest, DtoaContext, FmtSink};
/// let mut ctx = DtoaContext::new(10);
/// let mut s = String::new();
/// let mut sink = FmtSink::new(&mut s);
/// write_shortest(&mut ctx, &mut sink, 1e23);
/// sink.finish().unwrap();
/// assert_eq!(s, "1e23");
/// ```
#[derive(Debug)]
pub struct FmtSink<W: std::fmt::Write> {
    writer: W,
    error: Option<std::fmt::Error>,
}

impl<W: std::fmt::Write> FmtSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        FmtSink {
            writer,
            error: None,
        }
    }

    /// Returns the first write error, if any, and the writer.
    ///
    /// # Errors
    ///
    /// Propagates the first [`std::fmt::Error`] the writer reported.
    pub fn finish(self) -> Result<W, std::fmt::Error> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.writer),
        }
    }
}

/// Adapts a [`std::io::Write`] (a file, socket, `BufWriter`, or
/// [`std::io::sink`]) as a [`DigitSink`] — the export path of the batch
/// serializers. Like [`FmtSink`], write errors are latched and reported by
/// [`finish`](IoSink::finish) rather than unwinding mid-render; after an
/// error, further output is discarded.
///
/// Wrap files in a [`std::io::BufWriter`]: the renderer pushes a few short
/// runs per value (digits, separator, exponent), and each becomes one
/// `write_all` call.
///
/// ```
/// use fpp_core::{write_shortest, DtoaContext, IoSink};
/// let mut ctx = DtoaContext::new(10);
/// let mut sink = IoSink::new(Vec::new());
/// write_shortest(&mut ctx, &mut sink, 0.3);
/// assert_eq!(sink.finish().unwrap(), b"0.3");
/// ```
#[derive(Debug)]
pub struct IoSink<W: std::io::Write> {
    writer: W,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> IoSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        IoSink {
            writer,
            error: None,
        }
    }

    /// Returns the writer, or the first write error if any output was lost.
    ///
    /// # Errors
    ///
    /// Propagates the first [`std::io::Error`] the writer reported.
    pub fn finish(self) -> Result<W, std::io::Error> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.writer),
        }
    }
}

impl<W: std::io::Write> DigitSink for IoSink<W> {
    fn push(&mut self, byte: u8) {
        self.push_slice(&[byte]);
    }

    fn push_slice(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.writer.write_all(bytes) {
                self.error = Some(e);
            }
        }
    }
}

impl<W: std::fmt::Write> DigitSink for FmtSink<W> {
    fn push(&mut self, byte: u8) {
        if self.error.is_none() {
            if let Err(e) = self.writer.write_char(char::from(byte)) {
                self.error = Some(e);
            }
        }
    }

    fn push_slice(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            let s = std::str::from_utf8(bytes).expect("push_slice requires UTF-8");
            if let Err(e) = self.writer.write_str(s) {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_collects_bytes() {
        let mut v: Vec<u8> = Vec::new();
        v.push(b'4');
        DigitSink::push_slice(&mut v, b"2.5");
        assert_eq!(v, b"42.5");
    }

    #[test]
    fn vec_sink_capacity_does_not_depend_on_run_lengths() {
        // The same 60 bytes, first as one 20-byte run then 40, then in
        // 3-byte runs: both end at the same power-of-two capacity.
        let text = [b'7'; 60];
        let mut whole: Vec<u8> = Vec::new();
        DigitSink::push_slice(&mut whole, &text[..20]);
        DigitSink::push_slice(&mut whole, &text[20..]);
        let mut runs: Vec<u8> = Vec::new();
        for run in text.chunks(3) {
            DigitSink::push_slice(&mut runs, run);
        }
        assert_eq!(whole, runs);
        assert_eq!(whole.capacity(), 64);
        assert_eq!(runs.capacity(), 64);
    }

    #[test]
    fn slice_sink_tracks_length_and_text() {
        let mut buf = [0u8; 8];
        let mut sink = SliceSink::new(&mut buf);
        sink.push(b'1');
        sink.push_slice(b".25");
        assert_eq!(sink.written(), 4);
        assert_eq!(sink.as_bytes(), b"1.25");
        assert_eq!(sink.as_str(), "1.25");
        sink.clear();
        assert_eq!(sink.written(), 0);
        assert_eq!(sink.as_str(), "");
    }

    #[test]
    #[should_panic(expected = "SliceSink overflow")]
    fn slice_sink_overflow_panics() {
        let mut buf = [0u8; 2];
        let mut sink = SliceSink::new(&mut buf);
        sink.push_slice(b"123");
    }

    #[test]
    fn io_sink_writes_through_and_latches_errors() {
        let mut sink = IoSink::new(Vec::new());
        sink.push(b'4');
        sink.push_slice(b"2.5");
        assert_eq!(sink.finish().unwrap(), b"42.5");

        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken pipe"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = IoSink::new(Broken);
        sink.push(b'x');
        sink.push(b'y'); // discarded after the latched error
        assert!(sink.finish().is_err());
    }

    #[test]
    fn fmt_sink_writes_through() {
        let mut s = String::new();
        let mut sink = FmtSink::new(&mut s);
        sink.push(b'7');
        sink.push_slice("\u{202f}5".as_bytes());
        sink.finish().unwrap();
        assert_eq!(s, "7\u{202f}5");
    }
}
