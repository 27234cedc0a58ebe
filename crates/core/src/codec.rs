//! The workspace's one codec: every byte convention a persisted format
//! relies on lives here.
//!
//! * [`fnv1a`] — the 64-bit FNV-1a digest behind checkpoint checksums,
//!   config fingerprints and topology fingerprints.
//! * [`Enc`] / [`Dec`] — the little-endian binary codec of checkpoints and
//!   WAL ledger payloads: fixed-width integers, `f64`s as raw IEEE bits,
//!   `usize` as `u64`, `bool` and option tags as one byte, strings and
//!   sequences length-prefixed. Decoding is total: malformed input is a
//!   [`DecodeError`], never a panic or an unbounded allocation.
//! * [`Wire`] — one field list per record, shared by both directions: a
//!   record's `fn fields(w: &mut impl Wire, x: &mut T)` writes `x` when `w`
//!   is an [`Enc`] and overwrites it with decoded values when `w` is a
//!   [`Dec`], so a field can never be encoded and decoded in different
//!   orders.
//! * JSON — [`Value`], [`parse`], [`escape`], [`num`], [`ObjWriter`] and
//!   the `field*` accessors: the parser and writer for topology specs,
//!   chaos repro artifacts and the CLI's `--json` output.

use std::collections::BTreeMap;
use std::convert::Infallible;

pub use crate::json::{
    escape, field, field_bool, field_num, field_u64, num, parse, ObjWriter, ParseError, Value,
};

/// 64-bit FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Why a binary payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ends before the encoded value does (or a length prefix
    /// claims more bytes than remain).
    Truncated,
    /// The bytes decode to an invalid value.
    Malformed(
        /// What was invalid.
        &'static str,
    ),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload is truncated"),
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian binary encoder.
#[derive(Debug, Clone, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An encoder whose buffer starts with room for `bytes` bytes.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The bytes encoded so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning its bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends bytes verbatim (no length prefix).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.raw(&v.to_le_bytes());
    }

    /// A `usize`, widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `f64` as its raw IEEE bits, so it decodes bit-identically.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A bool as one byte, `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.raw(v.as_bytes());
    }

    /// A tag byte (`0` = `None`, `1` = `Some`) followed by the value.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        let mut v = v;
        let Ok(()) = self.option(&mut v, "invalid option tag", Wire::f64);
    }
}

/// Little-endian binary decoder over a borrowed payload; the inverse of
/// [`Enc`]. Every read is bounds-checked and every failure is a
/// [`DecodeError`].
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes, verbatim.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?.try_into().map_err(|_| DecodeError::Truncated)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// A `usize` encoded as `u64`; one that does not fit is malformed.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Malformed("count overflow"))
    }

    /// A length that is about to drive an allocation: bounded by the
    /// remaining payload so corrupt counts cannot trigger huge allocations.
    pub fn length(&mut self) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// An `f64` from its raw IEEE bits.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A bool byte, which must be `0` or `1`.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("invalid bool tag")),
        }
    }

    /// A tagged optional `f64` (see [`Enc::opt_f64`]).
    pub fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        let mut v = None;
        self.option(&mut v, "invalid option tag", Wire::f64)?;
        Ok(v)
    }

    /// Checks that the whole payload was consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes"))
        }
    }
}

/// One direction of the binary codec, so a record's field list is written
/// once and serves both: [`Enc`] reads each field and appends it, [`Dec`]
/// overwrites each field with the next decoded value. Field lists are
/// generic over `W: Wire` and monomorphised per direction.
///
/// Decoding starts from a blank (`Default`) record. Encoding only reads
/// the record; it takes `&mut` so both directions share one signature.
pub trait Wire {
    /// [`Infallible`] when encoding, [`DecodeError`] when decoding.
    type Error;

    /// `N` bytes, verbatim.
    fn bytes<const N: usize>(&mut self, v: &mut [u8; N]) -> Result<(), Self::Error>;

    /// A `usize` counter, encoded as `u64`.
    fn usize(&mut self, v: &mut usize) -> Result<(), Self::Error>;

    /// A length-prefixed UTF-8 string.
    fn string(&mut self, v: &mut String) -> Result<(), Self::Error>;

    /// A value of a small closed set, encoded as the byte `index(v)` and
    /// decoded as `table[byte]`; a byte past the table decodes as
    /// [`DecodeError::Malformed`]`(what)`. `index` should be an exhaustive
    /// `match`, so a new variant fails to compile until it has a byte, and
    /// `table[index(x)] == x` must hold for every `x`.
    fn tag<T: Copy>(
        &mut self,
        v: &mut T,
        index: fn(T) -> u8,
        table: &[T],
        what: &'static str,
    ) -> Result<(), Self::Error>;

    /// A collection length, encoded as `u64`; [`Dec`] bounds it by the bytes
    /// that remain (see [`Dec::length`]).
    fn length(&mut self, n: &mut usize) -> Result<(), Self::Error> {
        self.usize(n)
    }

    /// One byte.
    fn u8(&mut self, v: &mut u8) -> Result<(), Self::Error> {
        let mut b = [*v];
        self.bytes(&mut b)?;
        [*v] = b;
        Ok(())
    }

    /// A little-endian `u32`.
    fn u32(&mut self, v: &mut u32) -> Result<(), Self::Error> {
        let mut b = v.to_le_bytes();
        self.bytes(&mut b)?;
        *v = u32::from_le_bytes(b);
        Ok(())
    }

    /// A little-endian `u64`.
    fn u64(&mut self, v: &mut u64) -> Result<(), Self::Error> {
        let mut b = v.to_le_bytes();
        self.bytes(&mut b)?;
        *v = u64::from_le_bytes(b);
        Ok(())
    }

    /// An `f64` as its raw IEEE bits.
    fn f64(&mut self, v: &mut f64) -> Result<(), Self::Error> {
        let mut bits = v.to_bits();
        self.u64(&mut bits)?;
        *v = f64::from_bits(bits);
        Ok(())
    }

    /// A tag byte (`0` = `None`, `1` = `Some`), then the value's fields;
    /// any other tag decodes as [`DecodeError::Malformed`]`(what)`.
    fn option<T: Default>(
        &mut self,
        v: &mut Option<T>,
        what: &'static str,
        fields: impl FnOnce(&mut Self, &mut T) -> Result<(), Self::Error>,
    ) -> Result<(), Self::Error> {
        let mut some = v.is_some();
        self.tag(&mut some, u8::from, &[false, true], what)?;
        if !some {
            *v = None;
            return Ok(());
        }
        fields(self, v.get_or_insert_with(T::default))
    }

    /// A length-prefixed sequence, each item through `fields`. Decoding
    /// grows the vector one item at a time, so a corrupt count fails after
    /// a bounded allocation.
    fn list<T: Default>(
        &mut self,
        v: &mut Vec<T>,
        mut fields: impl FnMut(&mut Self, &mut T) -> Result<(), Self::Error>,
    ) -> Result<(), Self::Error> {
        let mut n = v.len();
        self.length(&mut n)?;
        v.truncate(n);
        for i in 0..n {
            if i == v.len() {
                v.push(T::default());
            }
            if let Some(x) = v.get_mut(i) {
                fields(self, x)?;
            }
        }
        Ok(())
    }

    /// A length-prefixed map in key order: each key as a string, then the
    /// value's fields. Decoding keeps the last of duplicate keys.
    fn map<V: Default>(
        &mut self,
        m: &mut BTreeMap<String, V>,
        mut fields: impl FnMut(&mut Self, &mut V) -> Result<(), Self::Error>,
    ) -> Result<(), Self::Error> {
        let mut entries: Vec<(String, V)> = std::mem::take(m).into_iter().collect();
        self.list(&mut entries, |w, (key, value)| {
            w.string(key)?;
            fields(w, value)
        })?;
        *m = entries.into_iter().collect();
        Ok(())
    }
}

impl Wire for Enc {
    type Error = Infallible;

    fn bytes<const N: usize>(&mut self, v: &mut [u8; N]) -> Result<(), Infallible> {
        self.raw(v);
        Ok(())
    }

    fn usize(&mut self, v: &mut usize) -> Result<(), Infallible> {
        Enc::usize(self, *v);
        Ok(())
    }

    fn string(&mut self, v: &mut String) -> Result<(), Infallible> {
        self.str(v);
        Ok(())
    }

    fn tag<T: Copy>(
        &mut self,
        v: &mut T,
        index: fn(T) -> u8,
        _table: &[T],
        _what: &'static str,
    ) -> Result<(), Infallible> {
        Enc::u8(self, index(*v));
        Ok(())
    }
}

impl Wire for Dec<'_> {
    type Error = DecodeError;

    fn bytes<const N: usize>(&mut self, v: &mut [u8; N]) -> Result<(), DecodeError> {
        *v = self.array()?;
        Ok(())
    }

    fn usize(&mut self, v: &mut usize) -> Result<(), DecodeError> {
        *v = Dec::usize(self)?;
        Ok(())
    }

    fn length(&mut self, n: &mut usize) -> Result<(), DecodeError> {
        *n = Dec::length(self)?;
        Ok(())
    }

    fn string(&mut self, v: &mut String) -> Result<(), DecodeError> {
        let n = Dec::length(self)?;
        *v = String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| DecodeError::Malformed("invalid UTF-8 string"))?;
        Ok(())
    }

    fn tag<T: Copy>(
        &mut self,
        v: &mut T,
        _index: fn(T) -> u8,
        table: &[T],
        what: &'static str,
    ) -> Result<(), DecodeError> {
        let index = usize::from(Dec::u8(self)?);
        *v = *table.get(index).ok_or(DecodeError::Malformed(what))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Sample {
        count: usize,
        ticks: u64,
        ratio: f64,
        flag: u8,
        kind: Option<bool>,
        window: Vec<f64>,
        named: BTreeMap<String, u32>,
        extra: Option<f64>,
    }

    fn sample_fields<W: Wire>(w: &mut W, s: &mut Sample) -> Result<(), W::Error> {
        w.usize(&mut s.count)?;
        w.u64(&mut s.ticks)?;
        w.f64(&mut s.ratio)?;
        w.u8(&mut s.flag)?;
        w.tag(&mut s.kind, kind_index, &KINDS, "invalid kind")?;
        w.list(&mut s.window, W::f64)?;
        w.map(&mut s.named, W::u32)?;
        w.option(&mut s.extra, "invalid extra tag", W::f64)
    }

    const KINDS: [Option<bool>; 3] = [None, Some(false), Some(true)];

    fn kind_index(kind: Option<bool>) -> u8 {
        match kind {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        }
    }

    fn sample() -> Sample {
        Sample {
            count: 7,
            ticks: u64::MAX,
            ratio: -0.1,
            flag: 3,
            kind: Some(true),
            window: vec![1.5, f64::MIN_POSITIVE],
            named: [("a".to_owned(), 1), ("b".to_owned(), 2)].into(),
            extra: Some(2.5),
        }
    }

    fn encode(mut s: Sample) -> Vec<u8> {
        let mut e = Enc::default();
        let Ok(()) = sample_fields(&mut e, &mut s);
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Sample, DecodeError> {
        let mut d = Dec::new(bytes);
        let mut s = Sample::default();
        sample_fields(&mut d, &mut s)?;
        d.finish()?;
        Ok(s)
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn one_field_list_round_trips() {
        assert_eq!(decode(&encode(sample())), Ok(sample()));
    }

    #[test]
    fn field_lists_write_the_same_bytes_as_the_explicit_encoder() {
        let mut e = Enc::default();
        e.usize(7);
        e.u64(u64::MAX);
        e.f64(-0.1);
        e.u8(3);
        e.u8(2);
        e.usize(2);
        e.f64(1.5);
        e.f64(f64::MIN_POSITIVE);
        e.usize(2);
        for (k, v) in [("a", 1), ("b", 2)] {
            e.str(k);
            e.u32(v);
        }
        e.opt_f64(Some(2.5));
        assert_eq!(e.into_bytes(), encode(sample()));
    }

    #[test]
    fn decode_is_total() {
        let bytes = encode(sample());
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]), Err(DecodeError::Truncated), "{cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode(&trailing),
            Err(DecodeError::Malformed("trailing bytes"))
        );
        // Tag bytes: the `kind` tag sits after count, ticks, ratio, flag.
        let mut bad_tag = bytes.clone();
        bad_tag[25] = 3;
        assert_eq!(
            decode(&bad_tag),
            Err(DecodeError::Malformed("invalid kind"))
        );
        // A corrupt count larger than the payload never allocates.
        let mut huge = bytes;
        huge[26..34].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&huge), Err(DecodeError::Truncated));
    }

    #[test]
    fn scalar_tags_are_validated() {
        assert_eq!(
            Dec::new(&[2]).bool(),
            Err(DecodeError::Malformed("invalid bool tag"))
        );
        assert_eq!(
            Dec::new(&[9]).opt_f64(),
            Err(DecodeError::Malformed("invalid option tag"))
        );
        let mut s = String::new();
        assert_eq!(
            Dec::new(&[3, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xfe, 0xfd]).string(&mut s),
            Err(DecodeError::Malformed("invalid UTF-8 string"))
        );
    }
}
