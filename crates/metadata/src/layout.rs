//! Physical placement of security metadata in NVM.
//!
//! Counter blocks and (for Solution 2) the CoW-metadata table live in
//! NVM like everything else, in reserved areas above the OS-visible
//! data space. Charging their traffic through the same device is what
//! makes the "extra RW traffic" column of the paper's Table I and
//! Lelantus-CoW's ~5 % extra writes (§V-C) measurable.

use lelantus_types::{PhysAddr, LINE_BYTES, REGION_BYTES};

/// Address map: `[0, data_bytes)` is ordinary data, followed by the
/// counter-block area (64 B per 4 KB region, i.e. 1.5625 % overhead),
/// the CoW-metadata table (8 B per region, 0.02 % — Table I), and the
/// per-line data-MAC area (8 B per 64 B line, the Rogers et al. [29]
/// substrate the paper assumes).
///
/// # Examples
///
/// ```
/// use lelantus_metadata::MetadataLayout;
/// use lelantus_types::PhysAddr;
///
/// let layout = MetadataLayout::for_data_bytes(1 << 30);
/// let ctr = layout.counter_addr_of(PhysAddr::new(0x1234));
/// assert!(ctr.as_u64() >= 1 << 30, "metadata lives above the data area");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetadataLayout {
    /// Size of the OS-visible data area in bytes.
    pub data_bytes: u64,
    /// Base of the counter-block area.
    pub counter_base: u64,
    /// Base of the supplementary CoW-metadata table.
    pub cow_meta_base: u64,
    /// Base of the per-line data-MAC area.
    pub mac_base: u64,
}

impl MetadataLayout {
    /// Builds the layout for a data area of `data_bytes` (rounded up to
    /// a whole number of 4 KB regions).
    ///
    /// # Panics
    ///
    /// Panics if `data_bytes` is zero.
    pub fn for_data_bytes(data_bytes: u64) -> Self {
        assert!(data_bytes > 0, "data area must be nonzero");
        let data_bytes = data_bytes.div_ceil(REGION_BYTES) * REGION_BYTES;
        let regions = data_bytes / REGION_BYTES;
        let counter_base = data_bytes;
        let counter_area = regions * LINE_BYTES as u64;
        let cow_meta_base = counter_base + counter_area;
        let cow_meta_area = (regions * 8).div_ceil(LINE_BYTES as u64) * LINE_BYTES as u64;
        let mac_base = cow_meta_base + cow_meta_area;
        Self { data_bytes, counter_base, cow_meta_base, mac_base }
    }

    /// Number of 4 KB regions in the data area.
    pub fn regions(&self) -> u64 {
        self.data_bytes / REGION_BYTES
    }

    /// Region index of a data address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in the data area.
    pub fn region_of(&self, addr: PhysAddr) -> u64 {
        assert!(addr.as_u64() < self.data_bytes, "address {addr} outside data area");
        addr.as_u64() / REGION_BYTES
    }

    /// Base data address of region `region`.
    pub fn region_base(&self, region: u64) -> PhysAddr {
        PhysAddr::new(region * REGION_BYTES)
    }

    /// NVM address of the counter block covering `addr`.
    pub fn counter_addr_of(&self, addr: PhysAddr) -> PhysAddr {
        self.counter_addr_of_region(self.region_of(addr))
    }

    /// NVM address of the counter block for region `region`.
    pub fn counter_addr_of_region(&self, region: u64) -> PhysAddr {
        PhysAddr::new(self.counter_base + region * LINE_BYTES as u64)
    }

    /// NVM line address holding the 8-byte CoW-metadata slot of
    /// `region`, together with the byte offset of the slot in the line.
    pub fn cow_meta_slot_of_region(&self, region: u64) -> (PhysAddr, usize) {
        let byte = self.cow_meta_base + region * 8;
        (PhysAddr::new(byte).line_align(), (byte % LINE_BYTES as u64) as usize)
    }

    /// NVM line holding the MAC of the data line containing `addr`,
    /// plus the tag's slot index within that MAC line.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in the data area.
    pub fn mac_slot_of_line(&self, addr: PhysAddr) -> (PhysAddr, usize) {
        assert!(addr.as_u64() < self.data_bytes, "address {addr} outside data area");
        let line_index = addr.as_u64() / LINE_BYTES as u64;
        let byte = self.mac_base + line_index * 8;
        (PhysAddr::new(byte).line_align(), ((byte % LINE_BYTES as u64) / 8) as usize)
    }

    /// Index of the MAC line (within the MAC area) holding `addr`'s tag.
    pub fn mac_line_index(&self, addr: PhysAddr) -> u64 {
        (self.mac_slot_of_line(addr).0.as_u64() - self.mac_base) / LINE_BYTES as u64
    }

    /// Total metadata bytes (counters + CoW table + MACs).
    pub fn metadata_bytes(&self) -> u64 {
        self.regions() * (LINE_BYTES as u64 + 8) + self.data_bytes / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_arithmetic() {
        let l = MetadataLayout::for_data_bytes(1 << 20); // 1 MiB = 256 regions
        assert_eq!(l.regions(), 256);
        assert_eq!(l.counter_base, 1 << 20);
        assert_eq!(l.cow_meta_base, (1 << 20) + 256 * 64);
        assert_eq!(l.metadata_bytes(), 256 * 72 + (1 << 20) / 8);
    }

    #[test]
    fn counter_addresses_are_disjoint_per_region() {
        let l = MetadataLayout::for_data_bytes(1 << 20);
        let a = l.counter_addr_of(PhysAddr::new(0));
        let b = l.counter_addr_of(PhysAddr::new(4096));
        assert_eq!(b - a, 64);
    }

    #[test]
    fn cow_slots_pack_eight_per_line() {
        let l = MetadataLayout::for_data_bytes(1 << 20);
        let (line0, off0) = l.cow_meta_slot_of_region(0);
        let (line7, off7) = l.cow_meta_slot_of_region(7);
        let (line8, off8) = l.cow_meta_slot_of_region(8);
        assert_eq!(line0, line7);
        assert_eq!(off0, 0);
        assert_eq!(off7, 56);
        assert_ne!(line0, line8);
        assert_eq!(off8, 0);
    }

    #[test]
    fn rounds_up_to_whole_regions() {
        let l = MetadataLayout::for_data_bytes(5000);
        assert_eq!(l.data_bytes, 8192);
        assert_eq!(l.regions(), 2);
    }

    #[test]
    #[should_panic(expected = "outside data area")]
    fn out_of_range_address_panics() {
        let l = MetadataLayout::for_data_bytes(4096);
        l.region_of(PhysAddr::new(4096));
    }

    #[test]
    fn mac_lines_of_a_region_index_back_to_it() {
        let l = MetadataLayout::for_data_bytes(1 << 20);
        // All 8 MAC lines of one region index back to that region: the
        // MAC area advances 512 data bytes per MAC line, 4096 per
        // region, so co-ownership holds by construction.
        for line in 0..64u64 {
            let addr = PhysAddr::new(5 * 4096 + line * 64);
            assert_eq!(l.mac_line_index(addr) / 8, l.region_of(addr));
        }
    }

    #[test]
    fn space_overhead_matches_table1() {
        // Counter blocks: 64B per 4KB = 1.5625 %; CoW table: 8B per
        // 4KB ≈ 0.2 % of a KB = 0.02 noted in Table I as ~0.02%.
        let l = MetadataLayout::for_data_bytes(1 << 30);
        let counters = l.regions() * 64;
        let cow = l.regions() * 8;
        assert!((counters as f64 / l.data_bytes as f64 - 0.015625).abs() < 1e-12);
        assert!((cow as f64 / l.data_bytes as f64 - 0.001953125).abs() < 1e-12);
    }
}
