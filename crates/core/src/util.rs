//! Small helpers shared by the collectors.

use tilgc_mem::{Addr, Header, MemError, Memory, Space};
use tilgc_runtime::{AllocShape, CollectReason};

/// Wire name of a collection trigger, for telemetry events.
pub(crate) fn reason_str(reason: CollectReason) -> &'static str {
    match reason {
        CollectReason::Forced => "forced",
        CollectReason::ForcedMajor => "forced-major",
        CollectReason::AllocFailure => "alloc-failure",
    }
}

/// Writes a freshly allocated object of the given shape at `addr`,
/// initializing its fields from the mutator's staged operand buffer.
///
/// # Panics
///
/// Panics if the shape is invalid (over-long record); shapes are validated
/// by the `Vm` entry points before they reach a collector.
pub(crate) fn materialize(mem: &mut Memory, addr: Addr, shape: AllocShape, buf: &[u64]) {
    match shape {
        AllocShape::Record { len, mask, .. } => {
            let header = Header::record(len, mask).expect("record shape validated by Vm");
            let words = mem.words_at_mut(addr, header.size_words());
            words[0] = header.raw();
            words[1..].copy_from_slice(&buf[..len]);
        }
        AllocShape::PtrArray { len, .. } => {
            let header = Header::ptr_array(len).expect("array shape validated by Vm");
            let init = buf.first().copied().unwrap_or(0);
            let words = mem.words_at_mut(addr, header.size_words());
            words[0] = header.raw();
            words[1..].fill(init);
        }
        AllocShape::RawArray { len_bytes, .. } => {
            let header = Header::raw_array(len_bytes).expect("array shape validated by Vm");
            let words = mem.words_at_mut(addr, header.size_words());
            words[0] = header.raw();
            words[1..].fill(0);
        }
    }
    // The allocation site lives in the side bytemap, not the header.
    mem.set_site(addr, shape.site());
}

/// Allocates and materializes an object in a bump space.
pub(crate) fn alloc_in_space(
    mem: &mut Memory,
    space: &mut Space,
    shape: AllocShape,
    buf: &[u64],
) -> Result<Addr, MemError> {
    let addr = space.alloc(shape.size_words())?;
    materialize(mem, addr, shape, buf);
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_mem::{object, SiteId};

    #[test]
    fn materialize_each_shape() {
        let mut mem = Memory::with_capacity_words(128);
        let mut s = Space::new(mem.reserve(64).unwrap());

        let rec = alloc_in_space(
            &mut mem,
            &mut s,
            AllocShape::Record {
                site: SiteId::new(1),
                len: 2,
                mask: 0b10,
            },
            &[11, 640],
        )
        .unwrap();
        assert_eq!(object::field(&mem, rec, 0), 11);
        assert!(object::header(&mem, rec).field_is_pointer(1));

        let arr = alloc_in_space(
            &mut mem,
            &mut s,
            AllocShape::PtrArray {
                site: SiteId::new(2),
                len: 3,
            },
            &[u64::from(rec.raw())],
        )
        .unwrap();
        for i in 0..3 {
            assert_eq!(object::ptr_field(&mem, arr, i), rec);
        }

        let raw = alloc_in_space(
            &mut mem,
            &mut s,
            AllocShape::RawArray {
                site: SiteId::new(3),
                len_bytes: 10,
            },
            &[],
        )
        .unwrap();
        assert_eq!(object::header(&mem, raw).payload_words(), 2);
        assert_eq!(object::field(&mem, raw, 0), 0);
    }
}
