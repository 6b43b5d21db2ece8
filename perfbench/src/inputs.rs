//! Set-up: render each camera's clip and pre-encode it.
//!
//! A workload's content is a fixed population: clip `c` shows dataset
//! `c mod 5`, realised from `DatasetSpec::for_stream(dataset, CONTENT_SEED,
//! c)`. The seed decides which camera shows which clip, where in its clip
//! each camera starts (the rotated clip is encoded afresh, so I-frames
//! fall elsewhere), each camera's phase and the channel's randomness. So
//! one seed always yields the same bitstreams, whatever the thread count,
//! while every seed measures the same mix of scenes: a clip holds only a
//! handful of events, and drawing fresh scenes per seed would make the
//! share of kept frames, and with it every rate, a property of the seed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sieve_datasets::{DatasetScale, DatasetSpec, LabelSet};
use sieve_video::{EncodedVideo, Frame};

use crate::workload::{clip_frames, dataset_of, Workload};

/// Realisation seed of the content population.
const CONTENT_SEED: u64 = 0x51E7_E000;

/// One pre-encoded camera with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    pub video: EncodedVideo,
    /// Ground-truth labels, one per frame of `video`.
    pub truth: Vec<LabelSet>,
    /// The container's I-frame index list.
    pub iframes: Vec<usize>,
    /// Offset of this camera's clock within a frame period, in seconds.
    pub phase_s: f64,
}

/// SplitMix64: the benchmark's own seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Per camera: the clip it shows, the frame its clip starts at, and its
/// phase as a fraction of a frame period.
fn plan(seed: u64, streams: usize) -> Vec<(usize, usize, f64)> {
    let mut rng = Rng(seed);
    let mut clips: Vec<usize> = (0..streams).collect();
    for i in (1..streams).rev() {
        clips.swap(i, rng.below(i + 1));
    }
    clips
        .into_iter()
        .map(|c| {
            let start = rng.below(clip_frames(0));
            let phase = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
            (c, start, phase)
        })
        .collect()
}

/// A workload's cameras plus what setting them up cost.
#[derive(Debug)]
pub struct Inputs {
    pub cams: Vec<Camera>,
    /// Wall time of the whole set-up.
    pub wall_s: f64,
    /// Thread time spent rendering clips.
    pub generate_s: f64,
    /// Thread time spent encoding them.
    pub encode_s: f64,
    /// Per-frame encode times, every camera.
    pub encode_us: Vec<f64>,
}

/// Times each pull from the wrapped iterator: the gap between two pulls is
/// the encoder's work on the frame handed out by the first.
struct Stamped<I> {
    inner: I,
    last: Option<Instant>,
    gaps_us: Vec<f64>,
}

impl<I: Iterator<Item = Frame>> Iterator for Stamped<I> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.gaps_us.push((now - last).as_secs_f64() * 1e6);
        }
        let next = self.inner.next();
        // Stamp after the pull so only the encoder's time lands in a gap.
        self.last = next.as_ref().map(|_| Instant::now());
        next
    }
}

struct Built {
    cam: Camera,
    generate_s: f64,
    encode_s: f64,
    encode_us: Vec<f64>,
}

/// Renders `frames` frames of `clip` starting at frame `start` (wrapping
/// around the clip's first [`clip_frames`]`(0)` frames) and encodes them.
fn build_camera(w: &Workload, clip: usize, start: usize, phase: f64, frames: usize) -> Built {
    let t0 = Instant::now();
    let video = DatasetSpec::for_stream(dataset_of(clip), CONTENT_SEED, clip as u64)
        .generate(DatasetScale::Tiny);
    let span = clip_frames(0).min(video.frame_count());
    let order: Vec<usize> = (0..frames.min(span)).map(|k| (start + k) % span).collect();
    let raw: Vec<Frame> = order.iter().map(|&k| video.frame(k)).collect();
    let truth: Vec<LabelSet> = order.iter().map(|&k| video.labels()[k]).collect();
    let t1 = Instant::now();
    let mut stamped = Stamped {
        inner: raw.into_iter(),
        last: None,
        gaps_us: Vec::with_capacity(frames),
    };
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        w.encoder(clip),
        &mut stamped,
    );
    let t2 = Instant::now();
    let iframes = encoded.i_frame_indices();
    Built {
        cam: Camera {
            phase_s: phase / f64::from(encoded.fps()),
            video: encoded,
            truth,
            iframes,
        },
        generate_s: (t1 - t0).as_secs_f64(),
        encode_s: (t2 - t1).as_secs_f64(),
        encode_us: stamped.gaps_us,
    }
}

/// Renders and encodes every camera of `w` on `threads` worker threads;
/// camera `i` gets [`clip_frames`]`(i)` frames, at most `max_frames`.
pub fn build(w: &Workload, seed: u64, max_frames: usize, threads: usize) -> Inputs {
    let start = Instant::now();
    let plan = plan(seed, w.streams);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Built>>> = Mutex::new((0..w.streams).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, w.streams) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= w.streams {
                    break;
                }
                let (clip, first, phase) = plan[i];
                let built = build_camera(w, clip, first, phase, clip_frames(i).min(max_frames));
                slots.lock().expect("set-up worker panicked")[i] = Some(built);
            });
        }
    });
    let built: Vec<Built> = slots
        .into_inner()
        .expect("set-up worker panicked")
        .into_iter()
        .map(|b| b.expect("every camera built"))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    let mut inputs = Inputs {
        cams: Vec::with_capacity(built.len()),
        wall_s,
        generate_s: 0.0,
        encode_s: 0.0,
        encode_us: Vec::new(),
    };
    for b in built {
        inputs.generate_s += b.generate_s;
        inputs.encode_s += b.encode_s;
        inputs.encode_us.extend(b.encode_us);
        inputs.cams.push(b.cam);
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    #[test]
    fn one_seed_generates_identical_inputs() {
        let w = Workload {
            streams: 3,
            ..by_name("sieve_fleet").expect("workload")
        };
        let a = build(&w, 7, 12, 2);
        let b = build(&w, 7, 12, 1);
        assert_eq!(a.cams, b.cams, "same seed, any thread count: same inputs");
        assert_eq!(a.cams.len(), 3);
        assert!(a.cams.iter().all(|c| c.video.frame_count() == 12));
        assert!(a.cams.iter().all(|c| c.truth.len() == 12));
        assert!(a.cams.iter().all(|c| c.iframes.first() == Some(&0)));
        let c = build(&w, 8, 12, 2);
        assert_ne!(a.cams, c.cams, "another seed: other inputs");
        let ids = |seed| {
            let mut p: Vec<usize> = plan(seed, 16).iter().map(|p| p.0).collect();
            p.sort_unstable();
            p
        };
        assert_eq!(ids(1), (0..16).collect::<Vec<_>>(), "every clip shown once");
        assert_eq!(ids(2), ids(1));
        assert_eq!(a.encode_us.len(), 3 * 12);
    }
}
