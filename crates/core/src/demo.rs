//! The §6 demo receiver station: "a custom-built receiver board using
//! another BWRC research radio as receiver, an oscilloscope showing the
//! raw and processed baseband signal, […] and a laptop with a graphical
//! display of sensor values" (Figs 7–8).

use crate::bus::TransmittedPacket;
use crate::fleet::demo_link;
use picocube_radio::packet::{self, Checksum};
use picocube_radio::{Link, SuperRegenReceiver};
use picocube_sensors::Sca3000;
use picocube_sim::{SimRng, SimTime};
use picocube_units::{Gs, Meters};

/// One decoded X/Y/Z sample as the laptop display would plot it (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceivedSample {
    /// Reception time.
    pub time: SimTime,
    /// Transmitting node id.
    pub node_id: u8,
    /// Decoded X-axis acceleration.
    pub x: Gs,
    /// Decoded Y-axis acceleration.
    pub y: Gs,
    /// Decoded Z-axis acceleration.
    pub z: Gs,
}

/// The receiver board + laptop pipeline.
#[derive(Debug)]
pub struct DemoStation {
    receiver: SuperRegenReceiver,
    link: Link,
    distance: Meters,
    rng: SimRng,
    received: Vec<ReceivedSample>,
    lost: usize,
}

impl DemoStation {
    /// Sets up the station at a given range from the cube.
    ///
    /// # Panics
    ///
    /// Panics if the distance is non-positive.
    pub fn new(receiver: SuperRegenReceiver, link: Link, distance: Meters, seed: u64) -> Self {
        assert!(distance.value() > 0.0, "distance must be positive");
        Self {
            receiver,
            link,
            distance,
            rng: SimRng::seed_from(seed),
            received: Vec::new(),
            lost: 0,
        }
    }

    /// Station at the demo-table distance (1 m) with the reference-\[12\]
    /// receiver and the as-built antenna link.
    pub fn demo_table(seed: u64) -> Self {
        Self::new(
            SuperRegenReceiver::bwrc_issc05(),
            demo_link(),
            Meters::new(1.0),
            seed,
        )
    }

    /// Moves the station.
    ///
    /// # Panics
    ///
    /// Panics if the distance is non-positive.
    pub fn set_distance(&mut self, distance: Meters) {
        assert!(distance.value() > 0.0, "distance must be positive");
        self.distance = distance;
    }

    /// Offers one on-air packet to the station; decodes motion payloads.
    /// Returns the decoded sample if the frame survived the channel.
    pub fn offer(&mut self, packet: &TransmittedPacket) -> Option<ReceivedSample> {
        match self.receiver.receive(
            &self.link,
            self.distance,
            &packet.bytes,
            Checksum::Xor,
            &mut self.rng,
        ) {
            Ok(frame) if frame.payload.len() == 6 => {
                let axis = |hi: u8, lo: u8| Sca3000::decode(u16::from(hi) << 8 | u16::from(lo));
                let [xh, xl, yh, yl, zh, zl] = *frame.payload.as_slice() else {
                    return None; // unreachable: length checked by the guard
                };
                let sample = ReceivedSample {
                    time: packet.time,
                    node_id: frame.node_id,
                    x: axis(xh, xl),
                    y: axis(yh, yl),
                    z: axis(zh, zl),
                };
                self.received.push(sample);
                Some(sample)
            }
            Ok(_) => {
                // Well-formed frame of another application; count received
                // but not plottable.
                None
            }
            Err(_) => {
                self.lost += 1;
                None
            }
        }
    }

    /// Offers a batch of packets; returns how many decoded.
    pub fn offer_all(&mut self, packets: &[TransmittedPacket]) -> usize {
        packets.iter().filter(|p| self.offer(p).is_some()).count()
    }

    /// Everything plotted so far.
    pub fn samples(&self) -> &[ReceivedSample] {
        &self.received
    }

    /// Packets lost to the channel so far.
    pub fn lost(&self) -> usize {
        self.lost
    }

    /// Raw decode: parse any TPMS packet's payload (four 12-bit codes).
    pub fn decode_tpms(packet: &TransmittedPacket) -> Option<[u16; 4]> {
        let frame = packet::decode(&packet.bytes, Checksum::Xor).ok()?;
        if frame.payload.len() != 8 {
            return None;
        }
        let mut codes = [0u16; 4];
        for (slot, pair) in codes.iter_mut().zip(frame.payload.chunks_exact(2)) {
            if let [hi, lo] = *pair {
                *slot = u16::from(hi) << 8 | u16::from(lo);
            }
        }
        Some(codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picocube_radio::{OokTransmitter, Transmission};

    fn motion_packet(x: f64, y: f64, z: f64) -> TransmittedPacket {
        let enc = |g: f64| Sca3000::encode(Gs::new(g));
        let payload: Vec<u8> = [enc(x), enc(y), enc(z)]
            .iter()
            .flat_map(|c| [(c >> 8) as u8, *c as u8])
            .collect();
        let bytes = packet::encode(0x42, &payload, Checksum::Xor);
        let transmission: Transmission = OokTransmitter::picocube().transmit(&bytes);
        TransmittedPacket {
            time: SimTime::from_secs(1),
            bytes,
            transmission,
            relayed: false,
        }
    }

    #[test]
    fn decodes_xyz_at_the_table() {
        let mut station = DemoStation::demo_table(1);
        let sample = station
            .offer(&motion_packet(0.5, -1.0, 1.2))
            .expect("decodes at 1 m");
        assert!((sample.x.value() - 0.5).abs() < 0.01);
        assert!((sample.y.value() + 1.0).abs() < 0.01);
        assert!((sample.z.value() - 1.2).abs() < 0.01);
        assert_eq!(sample.node_id, 0x42);
    }

    #[test]
    fn range_matters() {
        let mut station = DemoStation::demo_table(2);
        station.set_distance(Meters::new(500.0));
        let got = station.offer_all(
            &(0..50)
                .map(|_| motion_packet(0.0, 0.0, 1.0))
                .collect::<Vec<_>>(),
        );
        assert!(got < 5, "decoded {got}/50 at 500 m");
        assert!(station.lost() > 45);
    }

    #[test]
    fn tpms_payloads_are_not_plotted_as_motion() {
        let bytes = packet::encode(7, &[0; 8], Checksum::Xor);
        let transmission = OokTransmitter::picocube().transmit(&bytes);
        let p = TransmittedPacket {
            time: SimTime::ZERO,
            bytes,
            transmission,
            relayed: false,
        };
        let mut station = DemoStation::demo_table(3);
        assert!(station.offer(&p).is_none());
        assert_eq!(
            station.lost(),
            0,
            "an 8-byte frame is received, just not motion"
        );
        let codes = DemoStation::decode_tpms(&p).unwrap();
        assert_eq!(codes, [0, 0, 0, 0]);
    }
}
