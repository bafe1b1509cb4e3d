//! The checksum both framings share: `fdml-net` puts it in front of every
//! TCP frame and `fdml-core`'s durable log in front of every record, and
//! both already depend on this crate.

/// The IEEE 802.3 CRC32 lookup table (reflected polynomial 0xEDB88320),
/// built at compile time so the checksum needs no runtime setup and no
/// external crate.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The standard IEEE CRC32 (the one `zlib`, Ethernet, and PNG use), so the
/// framing stays verifiable with any off-the-shelf tool.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard check vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
