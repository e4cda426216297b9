//! Compact binary encoding of finalization artifacts (minimized integer
//! layers + sharing strategy), carried inside store records as a base64
//! string.
//!
//! Persisting the integer layers next to each design point lets
//! [`EvalEngine::finalize`](crate::engine::EvalEngine::finalize) run full
//! gate-level synthesis on a store-warmed Pareto finalist without re-running
//! the minimization pipeline. The layers are small (hundreds of weight codes)
//! but highly compressible: codes are near-zero integers, so the encoding is
//! zig-zag varints rather than JSON numbers — typically 4-6x smaller — and
//! the resulting byte stream is base64-wrapped to live inside a JSONL line.
//!
//! The encoding is exact: `f32` scales travel as raw bits, and a round trip
//! reproduces every layer bit for bit (a requirement — finalization
//! cross-checks full synthesis against the fast-path numbers, which only
//! works when the layers are identical).

use pmlp_hw::SharingStrategy;
use pmlp_minimize::IntegerLayer;

/// Version byte leading every encoded artifact blob; unknown versions decode
/// to `None` so foreign blobs are recomputed rather than misread.
const CODEC_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// varint / zigzag
// ---------------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_zigzag(out: &mut Vec<u8>, v: i64) {
    push_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift >= 64 {
                return None;
            }
            // The 10th byte holds only bit 63: any higher payload bit means
            // a corrupt blob, which must decode to None — never silently
            // truncate into accepted-but-wrong values.
            if shift == 63 && (byte & 0x7f) > 1 {
                return None;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    fn zigzag(&mut self) -> Option<i64> {
        let v = self.varint()?;
        Some(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn len_capped(&mut self) -> Option<usize> {
        // Dimension sanity cap: nothing in this workspace has layers beyond
        // a few thousand weights; a larger claim means a corrupt blob.
        let v = self.varint()?;
        (v <= 1 << 20).then_some(v as usize)
    }
}

// ---------------------------------------------------------------------------
// base64 (standard alphabet, unpadded)
// ---------------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        if chunk.len() > 1 {
            out.push(B64[(n >> 6) as usize & 63] as char);
        }
        if chunk.len() > 2 {
            out.push(B64[n as usize & 63] as char);
        }
    }
    out
}

fn b64_decode(text: &str) -> Option<Vec<u8>> {
    fn value(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some(u32::from(c - b'A')),
            b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let input = text.as_bytes();
    if input.len() % 4 == 1 {
        return None;
    }
    let mut out = Vec::with_capacity(input.len() / 4 * 3 + 2);
    for chunk in input.chunks(4) {
        let mut n: u32 = 0;
        for &c in chunk {
            n = (n << 6) | value(c)?;
        }
        n <<= 6 * (4 - chunk.len()) as u32;
        out.push((n >> 16) as u8);
        if chunk.len() > 2 {
            out.push((n >> 8) as u8);
        }
        if chunk.len() > 3 {
            out.push(n as u8);
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// artifact blob
// ---------------------------------------------------------------------------

/// Encodes minimized layers + sharing strategy into the compact base64 blob
/// stored next to a record's design point.
pub fn encode_artifacts(layers: &[IntegerLayer], sharing: SharingStrategy) -> String {
    let mut bytes = Vec::with_capacity(64 + layers.len() * 64);
    bytes.push(CODEC_VERSION);
    bytes.push(match sharing {
        SharingStrategy::None => 0,
        SharingStrategy::SharedPerInput => 1,
    });
    push_varint(&mut bytes, layers.len() as u64);
    for layer in layers {
        bytes.push(layer.weight_bits);
        bytes.extend_from_slice(&layer.scale.to_bits().to_le_bytes());
        push_varint(&mut bytes, layer.codes.len() as u64);
        for row in &layer.codes {
            push_varint(&mut bytes, row.len() as u64);
            for &code in row {
                push_zigzag(&mut bytes, code);
            }
        }
        push_varint(&mut bytes, layer.bias_codes.len() as u64);
        for &bias in &layer.bias_codes {
            push_zigzag(&mut bytes, bias);
        }
    }
    b64_encode(&bytes)
}

/// Decodes a blob written by [`encode_artifacts`]. Returns `None` for foreign
/// versions or corrupt blobs — the record carrying one is dropped and
/// recomputed.
pub fn decode_artifacts(blob: &str) -> Option<(Vec<IntegerLayer>, SharingStrategy)> {
    let bytes = b64_decode(blob)?;
    let mut r = Reader {
        bytes: &bytes,
        pos: 0,
    };
    if r.byte()? != CODEC_VERSION {
        return None;
    }
    let sharing = match r.byte()? {
        0 => SharingStrategy::None,
        1 => SharingStrategy::SharedPerInput,
        _ => return None,
    };
    let layer_count = r.len_capped()?;
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let weight_bits = r.byte()?;
        let mut scale_bits = [0u8; 4];
        for slot in &mut scale_bits {
            *slot = r.byte()?;
        }
        let scale = f32::from_bits(u32::from_le_bytes(scale_bits));
        let rows = r.len_capped()?;
        let mut codes = Vec::with_capacity(rows);
        for _ in 0..rows {
            let cols = r.len_capped()?;
            let mut row = Vec::with_capacity(cols);
            for _ in 0..cols {
                row.push(r.zigzag()?);
            }
            codes.push(row);
        }
        let biases = r.len_capped()?;
        let mut bias_codes = Vec::with_capacity(biases);
        for _ in 0..biases {
            bias_codes.push(r.zigzag()?);
        }
        layers.push(IntegerLayer {
            codes,
            bias_codes,
            scale,
            weight_bits,
        });
    }
    (r.pos == bytes.len()).then_some((layers, sharing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn layer(codes: Vec<Vec<i64>>, bias: Vec<i64>, scale: f32, bits: u8) -> IntegerLayer {
        IntegerLayer {
            codes,
            bias_codes: bias,
            scale,
            weight_bits: bits,
        }
    }

    #[test]
    fn artifacts_round_trip_exactly() {
        let layers = vec![
            layer(
                vec![vec![0, -1, 7, -128], vec![3, 3, 3, 3]],
                vec![-5, 12],
                0.03125,
                5,
            ),
            layer(
                vec![vec![i64::MAX, i64::MIN + 1]],
                vec![0],
                f32::MIN_POSITIVE,
                8,
            ),
        ];
        for sharing in [SharingStrategy::None, SharingStrategy::SharedPerInput] {
            let blob = encode_artifacts(&layers, sharing);
            let (back, back_sharing) = decode_artifacts(&blob).expect("decode");
            assert_eq!(back, layers);
            assert_eq!(back_sharing, sharing);
        }
    }

    #[test]
    fn empty_layer_list_round_trips() {
        let blob = encode_artifacts(&[], SharingStrategy::None);
        let (layers, sharing) = decode_artifacts(&blob).unwrap();
        assert!(layers.is_empty());
        assert_eq!(sharing, SharingStrategy::None);
    }

    #[test]
    fn corrupt_blobs_decode_to_none() {
        assert_eq!(decode_artifacts("not base64 !!!"), None);
        assert_eq!(decode_artifacts(""), None);
        // Valid base64, wrong version byte.
        assert_eq!(decode_artifacts(&b64_encode(&[99, 0, 0])), None);
        // Truncated blob.
        let blob = encode_artifacts(
            &[layer(vec![vec![1, 2, 3]], vec![4], 1.0, 4)],
            SharingStrategy::None,
        );
        assert_eq!(decode_artifacts(&blob[..blob.len() - 2]), None);
        // Trailing garbage is rejected, not silently ignored.
        let mut padded = b64_decode(&blob).unwrap();
        padded.push(0);
        assert_eq!(decode_artifacts(&b64_encode(&padded)), None);
    }

    #[test]
    fn overlong_varints_are_rejected_not_truncated() {
        // Hand-built blob: one layer, one 1x1 code whose varint is 10 bytes
        // with payload above bit 63 — corrupt, must decode to None rather
        // than silently truncate to a wrong code.
        let mut bytes = vec![CODEC_VERSION, 0];
        push_varint(&mut bytes, 1); // layer count
        bytes.push(4); // weight_bits
        bytes.extend_from_slice(&1.0f32.to_bits().to_le_bytes());
        push_varint(&mut bytes, 1); // rows
        push_varint(&mut bytes, 1); // cols
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        push_varint(&mut bytes, 0); // bias count
        assert_eq!(decode_artifacts(&b64_encode(&bytes)), None);

        // The exact u64::MAX zigzag encoding (10th byte == 0x01) still works.
        let layers = vec![layer(vec![vec![i64::MIN]], vec![], 1.0, 8)];
        let blob = encode_artifacts(&layers, SharingStrategy::None);
        assert_eq!(
            decode_artifacts(&blob),
            Some((layers, SharingStrategy::None))
        );
    }

    #[test]
    fn encoding_is_much_smaller_than_json_numbers() {
        let codes: Vec<Vec<i64>> = (0..25)
            .map(|n| {
                (0..11)
                    .map(|i| ((n * 31 + i * 17) % 31) as i64 - 15)
                    .collect()
            })
            .collect();
        let layers = vec![layer(codes, vec![1; 25], 0.25, 5)];
        let blob = encode_artifacts(&layers, SharingStrategy::None);
        let json_size = format!("{:?}", layers[0].codes).len();
        assert!(
            blob.len() * 2 < json_size,
            "blob {} bytes vs json-ish {} bytes",
            blob.len(),
            json_size
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_layers_round_trip(
            raw in proptest::collection::vec(
                (
                    proptest::collection::vec(
                        proptest::collection::vec(-70000i64..70000, 0..9),
                        0..6,
                    ),
                    proptest::collection::vec(-70000i64..70000, 0..6),
                    -1000.0f32..1000.0,
                    2u8..9,
                ),
                0..4,
            ),
            shared in 0u8..2,
        ) {
            let layers: Vec<IntegerLayer> = raw
                .into_iter()
                .map(|(codes, bias, scale, bits)| layer(codes, bias, scale, bits))
                .collect();
            let sharing = if shared == 1 {
                SharingStrategy::SharedPerInput
            } else {
                SharingStrategy::None
            };
            let blob = encode_artifacts(&layers, sharing);
            let decoded = decode_artifacts(&blob);
            prop_assert_eq!(decoded, Some((layers, sharing)));
        }
    }
}
