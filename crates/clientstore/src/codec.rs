//! Bit-exact binary codec for spilled shards.
//!
//! The serde-derived text formats round-trip floats through decimal, which
//! is not guaranteed bit-exact for every `f32`; the spill path therefore
//! writes raw little-endian IEEE-754 bit patterns. Sample-index lists are
//! *not* written — they are immutable and rebuilt from the store's CSR
//! index on load — so a spilled client costs `16 + 2·d·4` bytes: its id,
//! its selection count, `w_i` and its correction slot.
//!
//! The 32-byte header (magic, version, `d`, client count, [`checksum`] of
//! the payload) lets a load reject a file that was truncated or altered
//! since it was written, instead of handing back different state.

use crate::shard::ClientIndices;
use crate::state::ClientState;
use fedadmm_tensor::{TensorError, TensorResult};

const MAGIC: u32 = 0x4653_5348; // "FSSH"
const VERSION: u32 = 3;
const HEADER_LEN: usize = 32;

/// Bytes one client takes in a shard file: id, selection count, then the
/// local model and the correction slot as raw `f32`s.
fn record_len(d: usize) -> usize {
    16 + 2 * d * 4
}

/// A 64-bit checksum of `bytes`: four multiply-rotate lanes over 32-byte
/// blocks (xxHash64's round), merged with the length, then the tail a word
/// at a time and a final avalanche. Each step is a bijection of the word it
/// takes and of the state it carries, so two payloads of one length that
/// differ in a single 8-byte word — one flipped byte included — always get
/// different sums.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    let round = |acc: u64, word: u64| {
        acc.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let word = |w: &[u8]| {
        let mut le = [0u8; 8];
        le[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(le)
    };
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    let mut h = (bytes.len() as u64)
        .wrapping_add(lanes[0].rotate_left(1))
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    for w in blocks.remainder().chunks(8) {
        h = round(h, word(w));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Encodes the materialized entries of one shard.
pub(crate) fn encode_shard(entries: &[Option<Box<ClientState>>], d: usize) -> Vec<u8> {
    let count = entries.iter().filter(|e| e.is_some()).count();
    let mut buf = Vec::with_capacity(HEADER_LEN + count * record_len(d));
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(d as u64).to_le_bytes());
    buf.extend_from_slice(&(count as u64).to_le_bytes());
    // The checksum slot, filled in once the payload is written.
    buf.extend_from_slice(&0u64.to_le_bytes());
    for state in entries.iter().flatten() {
        buf.extend_from_slice(&(state.id as u64).to_le_bytes());
        buf.extend_from_slice(&(state.times_selected as u64).to_le_bytes());
        for vector in [&state.local_model, &state.dual] {
            for &x in vector.as_slice() {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    let sum = checksum(&buf[HEADER_LEN..]);
    buf[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    buf
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> TensorResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end =
            end.ok_or_else(|| TensorError::InvalidArgument("truncated spill file".to_string()))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> TensorResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> TensorResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32s(&mut self, n: usize) -> TensorResult<Vec<f32>> {
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

/// Decodes a shard written by [`encode_shard`] back into its slot vector
/// (length `shard_len`, ids in `shard_start..shard_start + shard_len`),
/// rebuilding each client's index list from the CSR `index`.
pub(crate) fn decode_shard(
    bytes: &[u8],
    shard_start: usize,
    shard_len: usize,
    d: usize,
    index: &ClientIndices,
) -> TensorResult<Vec<Option<Box<ClientState>>>> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.u32()? != MAGIC || cur.u32()? != VERSION {
        return Err(TensorError::InvalidArgument(
            "spill file has an unknown header".to_string(),
        ));
    }
    let file_d = cur.u64()? as usize;
    if file_d != d {
        return Err(TensorError::InvalidArgument(format!(
            "spill file holds dimension-{file_d} states but the store expects {d}"
        )));
    }
    let count = cur.u64()? as usize;
    let sum = cur.u64()?;
    let payload = bytes.len() - HEADER_LEN;
    if checksum(&bytes[HEADER_LEN..]) != sum {
        return Err(TensorError::InvalidArgument(format!(
            "spill file payload ({payload} bytes) does not match its checksum"
        )));
    }
    if count.checked_mul(record_len(d)) != Some(payload) {
        return Err(TensorError::InvalidArgument(format!(
            "spill file holds {payload} payload bytes, not {count} clients"
        )));
    }
    let mut entries: Vec<Option<Box<ClientState>>> = Vec::with_capacity(shard_len);
    entries.resize_with(shard_len, || None);
    for _ in 0..count {
        let id = cur.u64()? as usize;
        let times_selected = cur.u64()? as usize;
        let slot = id
            .checked_sub(shard_start)
            .filter(|&k| k < shard_len)
            .ok_or_else(|| {
                TensorError::InvalidArgument(format!(
                    "spill file contains client {id} outside its shard"
                ))
            })?;
        let local_model = cur.f32s(d)?.into();
        let dual = cur.f32s(d)?.into();
        entries[slot] = Some(Box::new(ClientState {
            id,
            indices: index.get(id).to_vec(),
            local_model,
            dual,
            times_selected,
        }));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamVector;
    use proptest::prelude::*;

    fn shard_of_states(
        states: Vec<ClientState>,
        len: usize,
        start: usize,
    ) -> Vec<Option<Box<ClientState>>> {
        let mut entries: Vec<Option<Box<ClientState>>> = Vec::new();
        entries.resize_with(len, || None);
        for s in states {
            let k = s.id - start;
            entries[k] = Some(Box::new(s));
        }
        entries
    }

    #[test]
    fn empty_shard_round_trips() {
        let index = ClientIndices::from_lists(vec![vec![]; 4]);
        let bytes = encode_shard(&[None, None], 3);
        let back = decode_shard(&bytes, 2, 2, 3, &index).unwrap();
        assert!(back.iter().all(Option::is_none));
    }

    #[test]
    fn rejects_corrupt_headers_and_truncation() {
        let index = ClientIndices::from_lists(vec![vec![]; 2]);
        assert!(decode_shard(&[0u8; 10], 0, 2, 3, &index).is_err());
        let mut bytes = encode_shard(&[None, None], 3);
        bytes[0] ^= 0xff;
        assert!(decode_shard(&bytes, 0, 2, 3, &index).is_err());
        let good = encode_shard(&[None, None], 3);
        assert!(
            decode_shard(&good, 0, 2, 5, &index).is_err(),
            "dimension mismatch"
        );
    }

    /// Every truncation and every single flipped bit of a two-client shard
    /// is an error, never a decode of different state.
    #[test]
    fn rejects_every_truncation_and_flipped_bit() {
        let d = 5;
        let index = ClientIndices::from_lists(vec![vec![0], vec![1], vec![2]]);
        let states = (1..3)
            .map(|id| {
                let mut s = ClientState::new(id, index.get(id).to_vec(), &ParamVector::zeros(d));
                s.local_model = ParamVector::from_vec(vec![0.5 * id as f32; d]);
                s.dual = ParamVector::from_vec(vec![-1.25; d]);
                s.times_selected = id;
                s
            })
            .collect();
        let good = encode_shard(&shard_of_states(states, 3, 0), d);
        assert_eq!(good.len(), HEADER_LEN + 2 * (16 + 2 * d * 4));
        assert!(decode_shard(&good, 0, 3, d, &index).is_ok());
        for len in 0..good.len() {
            assert!(
                decode_shard(&good[..len], 0, 3, d, &index).is_err(),
                "truncated to {len}"
            );
        }
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_shard(&bad, 0, 3, d, &index).is_err(),
                    "bit {bit} of byte {byte} flipped"
                );
            }
        }
    }

    proptest! {
        /// Every f32 bit pattern (including subnormals, -0.0, and extreme
        /// exponents) survives the spill round trip exactly.
        #[test]
        fn prop_round_trip_is_bit_exact(
            bits in proptest::collection::vec(any::<u32>(), 4),
            times in 0usize..1000,
        ) {
            // Skip NaNs: ParamVector equality is IEEE (NaN != NaN), so
            // compare bit patterns directly instead.
            let vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let d = 2;
            let index = ClientIndices::from_lists(vec![vec![7, 8], vec![1]]);
            let mut state = ClientState::new(1, index.get(1).to_vec(), &ParamVector::zeros(d));
            state.local_model = ParamVector::from_vec(vals[0..2].to_vec());
            state.dual = ParamVector::from_vec(vals[2..4].to_vec());
            state.times_selected = times;
            let entries = shard_of_states(vec![state], 2, 0);
            let bytes = encode_shard(&entries, d);
            let back = decode_shard(&bytes, 0, 2, d, &index).unwrap();
            prop_assert!(back[0].is_none());
            let got = back[1].as_ref().unwrap();
            prop_assert_eq!(got.id, 1);
            prop_assert_eq!(got.times_selected, times);
            prop_assert_eq!(&got.indices, &vec![1usize]);
            let all_bits: Vec<u32> = got
                .local_model
                .as_slice()
                .iter()
                .chain(got.dual.as_slice())
                .map(|x| x.to_bits())
                .collect();
            prop_assert_eq!(all_bits, bits);
        }
    }
}
