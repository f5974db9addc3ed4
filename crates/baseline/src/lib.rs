//! Baseline printers for the `fpp` evaluation, matching the comparison
//! points of the paper's §5 and Tables 2–3.
//!
//! * [`steele_white`] — an independent implementation of Steele & White's
//!   original free-format conversion algorithm ("Dragon", PLDI 1990): the
//!   same digit-by-digit loop but with the iterative `O(|log v|)` scaling
//!   search and no input-rounding-mode awareness (both endpoints always
//!   excluded). Differential-tested against `fpp-core` configured the same
//!   way.
//! * [`simple_fixed`] — the "straightforward fixed-format algorithm" of
//!   Table 3: correctly rounded output to a fixed number of significant
//!   digits by one exact big-integer division, with none of free format's
//!   shortest-string search.
//! * [`naive_printf`] — a `printf`-style fixed-format printer that extracts
//!   digits with native floating-point arithmetic, reproducing the classic
//!   (and classically *incorrectly rounded*) C-library technique whose error
//!   counts Table 3 reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod naive_printf;
pub mod simple_fixed;
pub mod steele_white;

pub use naive_printf::print_naive_printf;
pub use simple_fixed::print_simple_fixed;
pub use steele_white::{print_steele_white, write_steele_white};
