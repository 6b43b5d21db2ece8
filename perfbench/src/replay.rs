//! Layer timings the benchmark cannot take inside the fleet or the uplink:
//! it replays the run's own frames and kept payloads through the same
//! public functions, on the calling thread, with the same configs and
//! seeds, and times each call.

use std::collections::BTreeMap;
use std::time::Instant;

use sieve_core::{Decision, EdgeSession, EncodedFrameMeta, FrameSelector};
use sieve_net::fec::{encode_group, recover_group};
use sieve_net::{BlockOutcome, Depacketizer, Packet, Packetizer, UplinkConfig, WanChannel};
use sieve_video::Decoder;

use crate::inputs::Camera;
use crate::pipeline::SendRec;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Edge-side timings per (stream, frame of the clip), in microseconds.
#[derive(Debug, Default)]
pub struct EdgeReplay {
    /// `EdgeSession::observe`, decode and decision included.
    pub observe_us: Vec<Vec<f64>>,
    /// The decode the edge performs on that frame (0 where it decodes
    /// nothing).
    pub decode_us: Vec<Vec<f64>>,
    /// The selector's decision calls, decode excluded.
    pub select_us: Vec<Vec<f64>>,
    /// Samples of `Decoder::decode_iframe` and `Decoder::decode_next`.
    pub decode_iframe_us: Vec<f64>,
    pub decode_next_us: Vec<f64>,
}

/// Replays one lap of every camera through the edge: once through
/// `EdgeSession::observe`, once through its parts (`Decoder` and the
/// selector's `SelectorSession::observe`), mirroring the path the edge
/// takes for this policy.
pub fn edge(policy: &dyn FrameSelector, cams: &[Camera]) -> EdgeReplay {
    let mut out = EdgeReplay::default();
    for cam in cams {
        let (res, quality) = (cam.video.resolution(), cam.video.quality());
        let frames = cam.video.frames();

        let mut session = EdgeSession::open(policy, res, quality);
        let observe = frames
            .iter()
            .enumerate()
            .map(|(i, ef)| {
                let payload = ef.data.clone();
                let t = Instant::now();
                std::hint::black_box(session.observe(i, ef.frame_type, payload));
                us_since(t)
            })
            .collect();
        out.observe_us.push(observe);

        let mut decide = policy.session();
        let mut decoder = Decoder::new(res, quality);
        let mut decode_us = vec![0.0; frames.len()];
        let mut select_us = vec![0.0; frames.len()];
        for (i, ef) in frames.iter().enumerate() {
            let meta = EncodedFrameMeta::of(ef);
            if policy.requires_full_decode() {
                let t = Instant::now();
                let frame = decoder.decode_next(ef).expect("replayed frame decodes");
                decode_us[i] = us_since(t);
                out.decode_next_us.push(decode_us[i]);
                let t = Instant::now();
                if decide.observe(i, &meta, None) == Decision::NeedsDecode {
                    std::hint::black_box(decide.observe(i, &meta, Some(frame)));
                }
                select_us[i] = us_since(t);
            } else {
                let t = Instant::now();
                let first = decide.observe(i, &meta, None);
                select_us[i] = us_since(t);
                if first == Decision::Drop {
                    continue;
                }
                let t = Instant::now();
                let frame = Decoder::decode_iframe(res, quality, &ef.data)
                    .expect("replayed I-frame decodes");
                decode_us[i] = us_since(t);
                out.decode_iframe_us.push(decode_us[i]);
                if first == Decision::NeedsDecode {
                    let t = Instant::now();
                    std::hint::black_box(decide.observe(i, &meta, Some(&frame)));
                    select_us[i] += us_since(t);
                }
            }
        }
        out.decode_us.push(decode_us);
        out.select_us.push(select_us);
    }
    out
}

/// Transport timings per sent block, in microseconds.
#[derive(Debug, Default)]
pub struct NetReplay {
    /// `Packetizer::packetize`, FEC encode included.
    pub packetize_us: Vec<f64>,
    /// `fec::encode_group` over the block's groups.
    pub fec_encode_us: Vec<f64>,
    /// `WanChannel::send` of the block's packets plus the `poll` after it.
    pub channel_us: Vec<f64>,
    /// `Depacketizer::push` of whatever that poll delivered.
    pub depacketize_us: Vec<f64>,
    /// `fec::recover_group` for each block the receiver rebuilt.
    pub fec_recover_us: Vec<f64>,
    /// Bytes on the wire (headers and parity included) and block payload.
    pub wire_bytes: u64,
    pub payload_bytes: u64,
}

/// Packets that reached the receiver, per block, kept until the block
/// resolves so its recovery can be repeated.
type Arrived = BTreeMap<u64, Vec<Packet>>;

/// Re-runs `fec::recover_group` over the groups of `block` that lost data,
/// from the fragments that arrived.
fn recover(cfg: &UplinkConfig, packets: &[Packet]) -> f64 {
    let Some(first) = packets.first() else {
        return 0.0;
    };
    let data_frags = first.header.data_frags as usize;
    let (k, r) = (cfg.fec.group_data, cfg.fec.group_parity);
    let mut elapsed = 0.0;
    for g in 0..data_frags.div_ceil(k.max(1)) {
        let data_range = g * k..((g + 1) * k).min(data_frags);
        let parity_base = data_frags + g * r;
        let find = |frag: usize| {
            packets
                .iter()
                .find(|p| p.header.frag_index as usize == frag)
                .map(|p| p.payload.clone())
        };
        let mut data: Vec<Option<Vec<u8>>> = data_range.clone().map(find).collect();
        if data.iter().all(Option::is_some) {
            continue;
        }
        let parity: Vec<Option<Vec<u8>>> = (parity_base..parity_base + r).map(find).collect();
        let frag_len = parity
            .iter()
            .flatten()
            .map(Vec::len)
            .chain(data.iter().flatten().map(Vec::len))
            .max()
            .unwrap_or(0);
        let t = Instant::now();
        // An unrecoverable group cannot be part of a recovered block.
        let _ = std::hint::black_box(recover_group(&mut data, &parity, frag_len));
        elapsed += us_since(t);
    }
    elapsed
}

fn receive(
    cfg: &UplinkConfig,
    depacketizer: &mut Depacketizer,
    arrived: &mut Arrived,
    packets: Vec<Packet>,
    out: &mut NetReplay,
) -> f64 {
    let mut reports = Vec::new();
    let mut elapsed = 0.0;
    for p in packets {
        arrived
            .entry(p.header.block_id)
            .or_default()
            .push(p.clone());
        let t = Instant::now();
        reports.extend(depacketizer.push(p));
        elapsed += us_since(t);
    }
    for r in reports {
        let got = arrived.remove(&r.block_id).unwrap_or_default();
        if matches!(r.outcome, BlockOutcome::Recovered(_)) {
            out.fec_recover_us.push(recover(cfg, &got));
        }
    }
    elapsed
}

/// Replays the run's sends, in order and at their virtual times, through
/// a fresh packetizer, channel and depacketizer built from the uplink's
/// config and seed.
pub fn net(cfg: &UplinkConfig, sends: &[SendRec], cams: &[Camera]) -> NetReplay {
    let mut out = NetReplay::default();
    let mut packetizer = Packetizer::new(cfg.mtu, cfg.fec, 0).expect("uplink mtu is valid");
    let mut channel = WanChannel::new(cfg.wan.clone()).expect("uplink channel is valid");
    let mut depacketizer = Depacketizer::new(cfg.mtu, cfg.fec).expect("uplink fec is valid");
    let mut arrived = Arrived::new();
    for send in sends {
        let cam = &cams[send.stream as usize];
        let payload = &cam.video.frames()[send.index as usize % cam.video.frame_count()].data;
        out.payload_bytes += payload.len() as u64;

        let t = Instant::now();
        let (_, packets) = packetizer.packetize(payload);
        out.packetize_us.push(us_since(t));
        out.wire_bytes += packets.iter().map(|p| p.wire_len() as u64).sum::<u64>();

        let data_frags = packets.first().map_or(0, |p| p.header.data_frags as usize);
        let refs: Vec<&[u8]> = packets[..data_frags]
            .iter()
            .map(|p| p.payload.as_slice())
            .collect();
        let t = Instant::now();
        if cfg.fec.group_parity > 0 {
            for group in refs.chunks(cfg.fec.group_data) {
                std::hint::black_box(encode_group(group, cfg.fec.group_parity));
            }
        }
        out.fec_encode_us.push(us_since(t));

        let t = Instant::now();
        for p in packets {
            channel.send(send.sim, p);
        }
        let delivered = channel.poll(send.sim);
        out.channel_us.push(us_since(t));

        let depack = receive(cfg, &mut depacketizer, &mut arrived, delivered, &mut out);
        out.depacketize_us.push(depack);
    }
    let rest = channel.drain();
    let tail = receive(cfg, &mut depacketizer, &mut arrived, rest, &mut out);
    if let Some(last) = out.depacketize_us.last_mut() {
        *last += tail;
    }
    for r in depacketizer.finish() {
        if matches!(r.outcome, BlockOutcome::Recovered(_)) {
            let got = arrived.remove(&r.block_id).unwrap_or_default();
            out.fec_recover_us.push(recover(cfg, &got));
        }
    }
    out
}

/// Bytes on the wire for blocks of the given payload lengths, headers and
/// parity included, under `cfg`'s MTU and FEC shape.
pub fn wire_bytes(cfg: &UplinkConfig, lengths: impl IntoIterator<Item = usize>) -> u64 {
    let mut memo: BTreeMap<usize, u64> = BTreeMap::new();
    let mut packetizer = Packetizer::new(cfg.mtu, cfg.fec, 0).expect("uplink mtu is valid");
    lengths
        .into_iter()
        .map(|len| {
            *memo.entry(len).or_insert_with(|| {
                let (_, packets) = packetizer.packetize(&vec![0u8; len]);
                packets.iter().map(|p| p.wire_len() as u64).sum()
            })
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_net::{FecConfig, WanConfig};

    #[test]
    fn wire_bytes_match_the_packetizer() {
        let cfg = UplinkConfig {
            fec: FecConfig::default_on(),
            ..UplinkConfig::over(WanConfig::clean(1))
        };
        let mut p = Packetizer::new(cfg.mtu, cfg.fec, 0).expect("packetizer");
        for len in [0usize, 1, 1000, 5000, 20_000] {
            let direct: u64 = p
                .packetize(&vec![7u8; len])
                .1
                .iter()
                .map(|p| p.wire_len() as u64)
                .sum();
            assert_eq!(wire_bytes(&cfg, [len]), direct);
        }
        assert!(
            wire_bytes(&cfg, [5000]) > 5000,
            "headers and parity ride on top"
        );
    }
}
