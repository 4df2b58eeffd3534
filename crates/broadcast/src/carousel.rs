//! The DSM-CC object carousel.
//!
//! A carousel is a versioned set of files transmitted cyclically over the
//! data stream (§4.1): *"data are cyclically repeated to allow those
//! receivers that are being switched on in the middle of transmission ...
//! to have access to the data at different times"*. A receiver that wants a
//! file must wait for the file's next pass and then read it end-to-end —
//! which is exactly what produces the paper's average wakeup overhead of
//! `1.5·I/β` when the carousel carries little besides the image.
//!
//! Transmission is strictly periodic, so acquisition completion is a pure
//! function of the attach instant — no discrete events, O(1) per query.

use crate::tsmux::TransportMux;
use bytes::Bytes;
use oddci_crypto::Sha256;
use oddci_types::{Bandwidth, DataSize, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One file (DSM-CC module group) in the carousel.
#[derive(Debug, Clone)]
pub struct CarouselFile {
    /// Path-like name, unique within a carousel version.
    pub name: String,
    /// File contents. For simulation-scale images this is typically a
    /// zero-filled buffer of the right size; the live runtime puts real
    /// serialized payloads here.
    pub data: Bytes,
}

impl CarouselFile {
    /// Creates a file from name and contents.
    pub fn new(name: impl Into<String>, data: impl Into<Bytes>) -> Self {
        CarouselFile {
            name: name.into(),
            data: data.into(),
        }
    }

    /// Creates a file of `size` filled with zeros — used when only timing
    /// matters (multi-megabyte simulated images).
    pub fn sized(name: impl Into<String>, size: DataSize) -> Self {
        CarouselFile {
            name: name.into(),
            data: Bytes::from(vec![0u8; size.bytes_ceil() as usize]),
        }
    }

    /// Payload size of this file.
    pub fn size(&self) -> DataSize {
        DataSize::from_bytes(self.data.len() as u64)
    }

    /// SHA-256 of the contents, used by receivers for integrity checks.
    pub fn digest(&self) -> [u8; 32] {
        Sha256::digest(&self.data)
    }
}

/// Where each file sits inside one transmission cycle, in wire bits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CarouselLayout {
    /// Per-file `(start_bit, length_bits)` on the wire, in file order.
    pub segments: Vec<(u64, u64)>,
    /// Total wire bits in one cycle.
    pub cycle_bits: u64,
}

/// A versioned object carousel bound to a transport multiplex.
#[derive(Debug, Clone)]
pub struct ObjectCarousel {
    mux: TransportMux,
    version: u32,
    files: Vec<CarouselFile>,
    layout: CarouselLayout,
    /// Instant this version started transmitting.
    epoch: SimTime,
}

impl ObjectCarousel {
    /// Creates a carousel transmitting `files` from `epoch` onwards.
    ///
    /// # Panics
    /// Panics if `files` is empty or contains duplicate names.
    pub fn new(mux: TransportMux, files: Vec<CarouselFile>, epoch: SimTime) -> Self {
        let layout = Self::layout_for(&mux, &files);
        let mut names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "duplicate file names in carousel"
        );
        ObjectCarousel {
            mux,
            version: 1,
            files,
            layout,
            epoch,
        }
    }

    fn layout_for(mux: &TransportMux, files: &[CarouselFile]) -> CarouselLayout {
        assert!(!files.is_empty(), "a carousel must carry at least one file");
        let mut segments = Vec::with_capacity(files.len());
        let mut cursor = 0u64;
        for f in files {
            let wire = mux.wire_size(f.size()).bits();
            segments.push((cursor, wire));
            cursor += wire;
        }
        CarouselLayout {
            segments,
            cycle_bits: cursor,
        }
    }

    /// Replaces the carousel contents, bumping the version (§4.1: *"it is
    /// possible to dynamically update the carousel that is being
    /// transmitted"*). The new version starts transmitting at `now`.
    pub fn update(&mut self, files: Vec<CarouselFile>, now: SimTime) {
        assert!(
            now >= self.epoch,
            "carousel updates must move forward in time"
        );
        self.layout = Self::layout_for(&self.mux, &files);
        self.files = files;
        self.version += 1;
        self.epoch = now;
    }

    /// Current carousel version (bumped on every [`update`](Self::update)).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Instant the current version started transmitting.
    pub fn epoch(&self) -> SimTime {
        self.epoch
    }

    /// The files of the current version.
    pub fn files(&self) -> &[CarouselFile] {
        &self.files
    }

    /// Looks a file up by name.
    pub fn file(&self, name: &str) -> Option<&CarouselFile> {
        self.files.iter().find(|f| f.name == name)
    }

    /// Index of a file by name.
    pub fn file_index(&self, name: &str) -> Option<usize> {
        self.files.iter().position(|f| f.name == name)
    }

    /// Duration of one full transmission cycle at the nominal rate.
    pub fn cycle_duration(&self) -> SimDuration {
        DataSize::from_bits(self.layout.cycle_bits).transfer_time(self.mux.nominal)
    }

    /// Wire-rate of the underlying multiplex.
    pub fn rate(&self) -> Bandwidth {
        self.mux.nominal
    }

    /// When a receiver that starts listening at `attach` completes
    /// acquisition of file `index`.
    ///
    /// DSM-CC receivers in the paper's model wait for the *next* start of
    /// the file (mid-module joins are not resumed) and then read it
    /// end-to-end at the wire rate.
    ///
    /// # Panics
    /// Panics if `index` is out of range or `attach` precedes the epoch.
    pub fn acquisition_complete(&self, index: usize, attach: SimTime) -> SimTime {
        assert!(
            attach >= self.epoch,
            "receiver cannot attach before the carousel epoch"
        );
        let (start_bit, len_bits) = self.layout.segments[index];
        let cycle = self.layout.cycle_bits;
        // Phase of the transmitter at the attach instant, in wire bits.
        let elapsed_bits =
            (self.mux.nominal.bps() * (attach - self.epoch).as_secs_f64()).floor() as u64;
        let phase = elapsed_bits % cycle;
        // Bits until the file's next start.
        let wait_bits = if phase <= start_bit {
            start_bit - phase
        } else {
            cycle - phase + start_bit
        };
        let total = DataSize::from_bits(wait_bits + len_bits);
        attach + total.transfer_time(self.mux.nominal)
    }

    /// Convenience: acquisition completion for a file by name.
    pub fn acquisition_complete_by_name(&self, name: &str, attach: SimTime) -> Option<SimTime> {
        self.file_index(name)
            .map(|i| self.acquisition_complete(i, attach))
    }

    /// The expected acquisition latency for file `index` over a uniformly
    /// random attach phase: half a cycle of waiting plus the read itself.
    /// For a carousel dominated by one image this is the paper's `1.5·I/β`.
    pub fn expected_acquisition(&self, index: usize) -> SimDuration {
        let (_, len_bits) = self.layout.segments[index];
        let half_cycle = DataSize::from_bits(self.layout.cycle_bits / 2);
        let read = DataSize::from_bits(len_bits);
        half_cycle.transfer_time(self.mux.nominal) + read.transfer_time(self.mux.nominal)
    }

    /// Worst-case acquisition latency (attach immediately after the file
    /// started): one full cycle of waiting minus nothing, plus the read.
    pub fn worst_acquisition(&self, index: usize) -> SimDuration {
        let (_, len_bits) = self.layout.segments[index];
        let cycle = DataSize::from_bits(self.layout.cycle_bits);
        let read = DataSize::from_bits(len_bits);
        cycle.transfer_time(self.mux.nominal) + read.transfer_time(self.mux.nominal)
    }

    /// Best-case acquisition latency (attach exactly at the file start).
    pub fn best_acquisition(&self, index: usize) -> SimDuration {
        let (_, len_bits) = self.layout.segments[index];
        DataSize::from_bits(len_bits).transfer_time(self.mux.nominal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_types::Bandwidth;

    fn single_file_carousel(mb: u64, mbps: f64) -> ObjectCarousel {
        ObjectCarousel::new(
            TransportMux::new(Bandwidth::from_mbps(mbps)),
            vec![CarouselFile::sized("image", DataSize::from_megabytes(mb))],
            SimTime::ZERO,
        )
    }

    #[test]
    fn single_file_cycle_matches_wire_size() {
        let c = single_file_carousel(1, 1.0);
        let wire =
            TransportMux::new(Bandwidth::from_mbps(1.0)).wire_size(DataSize::from_megabytes(1));
        assert_eq!(
            c.cycle_duration(),
            wire.transfer_time(Bandwidth::from_mbps(1.0))
        );
    }

    #[test]
    fn attach_at_epoch_is_best_case() {
        let c = single_file_carousel(1, 1.0);
        let done = c.acquisition_complete(0, SimTime::ZERO);
        assert_eq!(done - SimTime::ZERO, c.best_acquisition(0));
        assert_eq!(c.best_acquisition(0), c.cycle_duration());
    }

    #[test]
    fn attach_just_after_start_is_worst_case() {
        let c = single_file_carousel(1, 1.0);
        // Attach one microsecond after the file began: wait almost a full
        // cycle, then read a full cycle.
        let attach = SimTime::from_micros(1);
        let done = c.acquisition_complete(0, attach);
        let latency = done - attach;
        let worst = c.worst_acquisition(0);
        assert!(latency <= worst);
        assert!(latency.as_secs_f64() > worst.as_secs_f64() * 0.999);
    }

    #[test]
    fn average_over_uniform_attach_is_1_5_cycles() {
        let c = single_file_carousel(1, 1.0);
        let cycle = c.cycle_duration().as_secs_f64();
        let n = 1000;
        let mean: f64 = (0..n)
            .map(|i| {
                let attach = SimTime::from_secs_f64(cycle * i as f64 / n as f64);
                (c.acquisition_complete(0, attach) - attach).as_secs_f64()
            })
            .sum::<f64>()
            / n as f64;
        // Paper's W = 1.5 I/β law (here in wire terms).
        assert!(
            (mean / cycle - 1.5).abs() < 0.01,
            "mean/cycle={}",
            mean / cycle
        );
    }

    /// X4: the 1.5 law holds only while the image dominates the cycle.
    /// An 8 MB image at 1 Mbps beside 0, 2, 8 and 32 one-MB co-tenants.
    #[test]
    fn co_tenants_dilute_the_1_5_factor() {
        let beta = Bandwidth::from_mbps(1.0);
        let image = DataSize::from_megabytes(8);
        let image_cycle = image.transfer_time(beta).as_secs_f64();
        let wire = TransportMux::new(beta).wire_size(image);
        for (extra, factor) in [(0, 1.54), (2, 1.67), (8, 2.05), (32, 3.59)] {
            let mut files = vec![
                CarouselFile::sized("config", DataSize::from_bytes(512)),
                CarouselFile::sized("image", image),
            ];
            files.extend(
                (0..extra).map(|i| {
                    CarouselFile::sized(format!("other-{i}"), DataSize::from_megabytes(1))
                }),
            );
            let c = ObjectCarousel::new(TransportMux::new(beta), files, SimTime::ZERO);
            let mean = c.expected_acquisition(1).as_secs_f64() / image_cycle;
            assert!((mean - factor).abs() <= 0.02, "{extra} co-tenants: {mean}");
            // Attaching as the image starts costs 1× its own wire time.
            assert_eq!(c.best_acquisition(1), wire.transfer_time(beta));
        }
    }

    #[test]
    fn acquisition_is_periodic() {
        let c = single_file_carousel(2, 1.0);
        let cycle = c.cycle_duration();
        let a1 = c.acquisition_complete(0, SimTime::from_secs(3));
        let a2 = c.acquisition_complete(0, SimTime::from_secs(3) + cycle);
        assert_eq!(a2 - a1, cycle);
    }

    #[test]
    fn multi_file_layout_is_contiguous() {
        let mux = TransportMux::default();
        let c = ObjectCarousel::new(
            mux,
            vec![
                CarouselFile::sized("pna.xlet", DataSize::from_kilobytes(100)),
                CarouselFile::sized("image", DataSize::from_megabytes(5)),
                CarouselFile::new("config", Bytes::from_static(b"probability=0.5")),
            ],
            SimTime::ZERO,
        );
        assert_eq!(c.files().len(), 3);
        assert_eq!(c.file_index("image"), Some(1));
        assert!(c.file("missing").is_none());
        // Segments tile the cycle exactly.
        let mut cursor = 0;
        for &(s, l) in &ObjectCarousel::layout_for(&TransportMux::default(), c.files()).segments {
            assert_eq!(s, cursor);
            cursor += l;
        }
    }

    #[test]
    fn later_files_wait_for_their_slot() {
        let mux = TransportMux::new(Bandwidth::from_mbps(1.0));
        let c = ObjectCarousel::new(
            mux,
            vec![
                CarouselFile::sized("a", DataSize::from_kilobytes(500)),
                CarouselFile::sized("b", DataSize::from_kilobytes(500)),
            ],
            SimTime::ZERO,
        );
        // Attaching at epoch: file b cannot complete before file a's slot passes.
        let done_a = c.acquisition_complete(0, SimTime::ZERO);
        let done_b = c.acquisition_complete(1, SimTime::ZERO);
        assert!(done_b > done_a);
    }

    #[test]
    fn update_bumps_version_and_epoch() {
        let mut c = single_file_carousel(1, 1.0);
        assert_eq!(c.version(), 1);
        c.update(
            vec![CarouselFile::sized("image2", DataSize::from_megabytes(2))],
            SimTime::from_secs(100),
        );
        assert_eq!(c.version(), 2);
        assert_eq!(c.epoch(), SimTime::from_secs(100));
        assert!(c.file("image").is_none());
        assert!(c.file("image2").is_some());
        // Acquisition phase restarts at the new epoch.
        let done = c.acquisition_complete(0, SimTime::from_secs(100));
        assert_eq!(done - SimTime::from_secs(100), c.best_acquisition(0));
    }

    #[test]
    fn expected_acquisition_bounds() {
        let c = single_file_carousel(4, 2.0);
        let best = c.best_acquisition(0);
        let avg = c.expected_acquisition(0);
        let worst = c.worst_acquisition(0);
        assert!(best < avg && avg < worst);
    }

    #[test]
    fn digest_detects_corruption() {
        let f1 = CarouselFile::new("x", Bytes::from_static(b"payload"));
        let f2 = CarouselFile::new("x", Bytes::from_static(b"payloaD"));
        assert_ne!(f1.digest(), f2.digest());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let _ = ObjectCarousel::new(
            TransportMux::default(),
            vec![
                CarouselFile::sized("same", DataSize::from_bytes(10)),
                CarouselFile::sized("same", DataSize::from_bytes(20)),
            ],
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "at least one file")]
    fn empty_carousel_rejected() {
        let _ = ObjectCarousel::new(TransportMux::default(), vec![], SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "before the carousel epoch")]
    fn attach_before_epoch_rejected() {
        let mut c = single_file_carousel(1, 1.0);
        c.update(
            vec![CarouselFile::sized("i", DataSize::from_bytes(8))],
            SimTime::from_secs(10),
        );
        let _ = c.acquisition_complete(0, SimTime::from_secs(5));
    }
}
