//! Checkpoint (de)serialisation of model parameters.
//!
//! Architectures are code; only the flat parameter vector and a
//! fingerprint are persisted. Loading verifies the fingerprint so a
//! checkpoint cannot be silently applied to the wrong architecture.
//!
//! The parameter vector — and every other bulk float plane a simulation
//! checkpoint carries — is a [`Packed`] plane: inside the JSON document
//! it is one string of hex digits, the values' own bytes, not an array
//! of decimal numbers. Writing and reading it is a table lookup per
//! byte instead of a float print / parse per value, the text is 8
//! characters per `f32` instead of up to 19, and the round trip is
//! bit-exact by construction: the bytes are the bits, including NaN
//! payloads, infinities and `-0.0`, which the decimal writer could not
//! carry (non-finite numbers become `null` in JSON).

use crate::model::Sequential;
use crate::params::{flatten, unflatten};
use serde::{Deserialize, Serialize, Value};
use std::ops::Deref;

/// A bulk plane of floats (`f32` or `f64`) that serialises as a single
/// string: lower-case hex of each value's little-endian bytes, in
/// order — 8 characters per `f32`, 16 per `f64`, so `[1.0f32, -2.5]` is
/// `"0000803f000020c0"`. Deserialising accepts exactly that encoding: a
/// length that is not a whole number of values, an upper-case digit or
/// any other byte is an error, as is a JSON array (there is no second
/// encoding to fall back to).
///
/// It derefs to its `Vec`, so code that reads a plane does not see the
/// wrapper.
#[derive(Debug, Clone, PartialEq)]
pub struct Packed<T>(pub Vec<T>);

impl<T> Deref for Packed<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

/// The two hex digits of every byte value.
static HEX_OF_BYTE: [[u8; 2]; 256] = {
    let digits = *b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [digits[b >> 4], digits[b & 15]];
        b += 1;
    }
    table
};

/// Marks a byte that is not a lower-case hex digit in [`NIBBLE_OF_DIGIT`];
/// no nibble has any of its high bits.
const NOT_HEX: u8 = 0xff;

/// The value of every lower-case hex digit, [`NOT_HEX`] elsewhere.
static NIBBLE_OF_DIGIT: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut d = 0;
    while d < 16 {
        table[b"0123456789abcdef"[d] as usize] = d as u8;
        d += 1;
    }
    table
};

macro_rules! impl_packed {
    ($($t:ty),*) => {$(
        impl Serialize for Packed<$t> {
            fn to_value(&self) -> Value {
                const DIGITS: usize = 2 * size_of::<$t>();
                let mut hex = vec![0u8; self.0.len() * DIGITS];
                for (out, v) in hex.chunks_exact_mut(DIGITS).zip(&self.0) {
                    for (pair, byte) in out.chunks_exact_mut(2).zip(v.to_le_bytes()) {
                        pair.copy_from_slice(&HEX_OF_BYTE[usize::from(byte)]);
                    }
                }
                Value::Str(String::from_utf8(hex).expect("hex digits are ASCII"))
            }
        }

        impl Deserialize for Packed<$t> {
            fn from_value(v: &Value) -> Result<Self, serde::Error> {
                const DIGITS: usize = 2 * size_of::<$t>();
                let Value::Str(hex) = v else {
                    return Err(serde::Error::custom(
                        "expected a packed plane (a string of hex digits)",
                    ));
                };
                if hex.len() % DIGITS != 0 {
                    return Err(serde::Error::custom(format!(
                        "packed plane of {} hex digits is not a whole number of {}-digit values",
                        hex.len(),
                        DIGITS
                    )));
                }
                let mut seen = 0u8;
                let values = hex
                    .as_bytes()
                    .chunks_exact(DIGITS)
                    .map(|digits| {
                        let mut bytes = [0u8; size_of::<$t>()];
                        for (byte, pair) in bytes.iter_mut().zip(digits.chunks_exact(2)) {
                            let hi = NIBBLE_OF_DIGIT[usize::from(pair[0])];
                            let lo = NIBBLE_OF_DIGIT[usize::from(pair[1])];
                            seen |= hi | lo;
                            *byte = hi << 4 | lo;
                        }
                        <$t>::from_le_bytes(bytes)
                    })
                    .collect();
                // Checked once for the whole plane: a bad digit anywhere
                // leaves a high bit in `seen`.
                if seen > 0x0f {
                    return Err(serde::Error::custom(
                        "packed plane holds a byte that is not a lower-case hex digit",
                    ));
                }
                Ok(Packed(values))
            }
        }
    )*};
}

impl_packed!(f32, f64);

/// A serialisable snapshot of a model's parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Per-parameter tensor lengths, in canonical order — the
    /// architecture fingerprint.
    pub layout: Vec<usize>,
    /// Flat parameter values.
    pub values: Packed<f32>,
}

impl Checkpoint {
    /// Captures the current parameters of `model`: its layout and a
    /// copy of its parameter plane.
    pub fn capture(model: &Sequential) -> Self {
        Checkpoint {
            layout: model.layout().to_vec(),
            values: Packed(flatten(model)),
        }
    }

    /// Checks that the snapshot fits `model`'s architecture, writing
    /// nothing.
    ///
    /// # Errors
    /// Returns an error when the architecture fingerprint does not match.
    pub fn fits(&self, model: &Sequential) -> Result<(), String> {
        let layout = model.layout();
        if layout != self.layout {
            return Err(format!(
                "checkpoint layout {:?} does not match model layout {:?}",
                self.layout, layout
            ));
        }
        if self.values.len() != layout.iter().sum::<usize>() {
            return Err("checkpoint value count does not match its own layout".into());
        }
        Ok(())
    }

    /// Restores the snapshot into `model`.
    ///
    /// # Errors
    /// Returns an error when the architecture fingerprint does not match
    /// ([`Checkpoint::fits`]); `model` is then untouched.
    pub fn restore(&self, model: &mut Sequential) -> Result<(), String> {
        self.fits(model)?;
        unflatten(model, &self.values);
        Ok(())
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialisation cannot fail")
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    /// Returns the JSON parse error message.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use middle_tensor::random::rng;

    fn model(seed: u64) -> Sequential {
        Sequential::new().push(Dense::new(3, 2, &mut rng(seed)))
    }

    #[test]
    fn capture_restore_roundtrip() {
        let a = model(1);
        let ck = Checkpoint::capture(&a);
        let mut b = model(2);
        assert_ne!(flatten(&a), flatten(&b));
        ck.restore(&mut b).unwrap();
        assert_eq!(flatten(&a), flatten(&b));
    }

    #[test]
    fn json_roundtrip() {
        let a = model(3);
        let ck = Checkpoint::capture(&a);
        let ck2 = Checkpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(ck.values, ck2.values);
        assert_eq!(ck.layout, ck2.layout);
    }

    #[test]
    fn wrong_architecture_is_rejected() {
        let a = model(4);
        let ck = Checkpoint::capture(&a);
        let mut wrong = Sequential::new().push(Dense::new(4, 2, &mut rng(5)));
        assert!(ck.restore(&mut wrong).is_err());
    }

    #[test]
    fn corrupt_json_is_rejected() {
        assert!(Checkpoint::from_json("{not json").is_err());
    }

    #[test]
    fn packed_bytes_are_little_endian_lower_case_hex() {
        // 1.0f32 = 0x3f800000, -2.5f32 = 0xc0200000; 1.0f64 = 0x3ff0…0.
        let ck = Checkpoint {
            layout: vec![2],
            values: Packed(vec![1.0, -2.5]),
        };
        assert_eq!(
            ck.to_json(),
            r#"{"layout":[2],"values":"0000803f000020c0"}"#
        );
        assert_eq!(
            serde_json::to_string(&Packed(vec![1.0f64])).unwrap(),
            r#""000000000000f03f""#
        );
        assert_eq!(
            serde_json::to_string(&Packed::<f32>(Vec::new())).unwrap(),
            r#""""#
        );
    }

    #[test]
    fn malformed_planes_are_errors_not_panics() {
        let plane = |text: &str| serde_json::from_str::<Packed<f32>>(text);
        assert_eq!(plane(r#""0000803f""#).unwrap().0, vec![1.0]);
        assert_eq!(plane(r#""""#).unwrap().0, Vec::<f32>::new());
        for bad in [
            r#""0000803""#,    // odd length
            r#""0000803f00""#, // whole bytes, not a whole value
            r#""0000803F""#,   // upper case
            r#""0000803g""#,   // not hex
            r#""0000 03f""#,   // not hex
            r#""00008é0f""#,   // eight bytes, one of them half a character
            "[1.0]",           // the decimal encoding is gone
            "null",
        ] {
            assert!(plane(bad).is_err(), "{bad} must not parse");
        }
        // An f64 plane needs 16 digits per value.
        assert!(serde_json::from_str::<Packed<f64>>(r#""0000803f""#).is_err());
    }

    #[test]
    fn value_count_must_match_the_layout() {
        let mut ck = Checkpoint::capture(&model(6));
        ck.values.0.pop();
        let short = Checkpoint::from_json(&ck.to_json()).unwrap();
        assert!(short.restore(&mut model(6)).is_err());
    }
}
