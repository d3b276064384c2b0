use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use svt_stdcell::Library;

use crate::NetlistError;

/// One placed-and-routable cell instance of a mapped netlist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappedInstance {
    /// Instance name, unique in the netlist.
    pub name: String,
    /// Library cell name (e.g. `NAND2X1`).
    pub cell: String,
    /// `(pin, net)` connections; inputs in library pin order, then the
    /// output.
    pub connections: Vec<(String, String)>,
}

impl MappedInstance {
    /// The net connected to a pin, if any.
    #[must_use]
    pub fn net_of(&self, pin: &str) -> Option<&str> {
        self.connections
            .iter()
            .find(|(p, _)| p == pin)
            .map(|(_, n)| n.as_str())
    }
}

/// A technology-mapped netlist: instances of library cells connected by
/// nets.
///
/// # Examples
///
/// ```
/// use svt_netlist::{bench, technology_map};
/// use svt_stdcell::Library;
///
/// let n = bench::parse("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")?;
/// let mapped = technology_map(&n, &Library::svt90())?;
/// assert_eq!(mapped.instances().len(), 1);
/// assert_eq!(mapped.instances()[0].cell, "INVX1");
/// # Ok::<(), svt_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MappedNetlist {
    name: String,
    inputs: Vec<String>,
    outputs: Vec<String>,
    instances: Vec<MappedInstance>,
    /// See [`MappedNetlist::stamp`].
    stamp: u64,
    /// Instance indices sorted by instance name, built by the first
    /// lookup by name. Names never change after construction.
    by_name: OnceLock<Vec<u32>>,
}

/// The next [`MappedNetlist::stamp`]; stamps are never reused. `Relaxed`
/// suffices: `fetch_add` alone keeps them unique, and a stamp publishes
/// no other data.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Equality of the designs; the stamp and the name index are bookkeeping.
impl PartialEq for MappedNetlist {
    fn eq(&self, other: &MappedNetlist) -> bool {
        self.name == other.name
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.instances == other.instances
    }
}

impl Eq for MappedNetlist {}

impl MappedNetlist {
    /// Creates and validates a mapped netlist against a library.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNetlist`] on unknown cells, missing
    /// or extra pin connections, multiply driven nets, or undriven loads.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<String>,
        outputs: Vec<String>,
        instances: Vec<MappedInstance>,
        library: &Library,
    ) -> Result<MappedNetlist, NetlistError> {
        let netlist = MappedNetlist {
            name: name.into(),
            inputs,
            outputs,
            instances,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
            by_name: OnceLock::new(),
        };
        netlist.validate(library)?;
        Ok(netlist)
    }

    fn validate(&self, library: &Library) -> Result<(), NetlistError> {
        let mut driven: HashSet<&str> = self.inputs.iter().map(String::as_str).collect();
        let mut names: HashSet<&str> = HashSet::new();
        for inst in &self.instances {
            if !names.insert(&inst.name) {
                return Err(NetlistError::InvalidNetlist {
                    reason: format!("duplicate instance name `{}`", inst.name),
                });
            }
            let cell = library
                .cell(&inst.cell)
                .ok_or_else(|| NetlistError::InvalidNetlist {
                    reason: format!("instance `{}` uses unknown cell `{}`", inst.name, inst.cell),
                })?;
            for pin in cell.pins() {
                if inst.net_of(&pin.name).is_none() {
                    return Err(NetlistError::InvalidNetlist {
                        reason: format!(
                            "instance `{}` leaves pin `{}` unconnected",
                            inst.name, pin.name
                        ),
                    });
                }
            }
            if inst.connections.len() != cell.pins().len() {
                return Err(NetlistError::InvalidNetlist {
                    reason: format!("instance `{}` has extra connections", inst.name),
                });
            }
            let out_net = inst.net_of(&cell.output_pin().name).expect("checked above");
            if !driven.insert(out_net) {
                return Err(NetlistError::InvalidNetlist {
                    reason: format!("net `{out_net}` has multiple drivers"),
                });
            }
        }
        for inst in &self.instances {
            let cell = library.cell(&inst.cell).expect("checked above");
            for pin in cell.input_pins() {
                let net = inst.net_of(&pin.name).expect("checked above");
                if !driven.contains(net) {
                    return Err(NetlistError::InvalidNetlist {
                        reason: format!("instance `{}` input net `{net}` is undriven", inst.name),
                    });
                }
            }
        }
        for po in &self.outputs {
            if !driven.contains(po.as_str()) {
                return Err(NetlistError::InvalidNetlist {
                    reason: format!("primary output `{po}` is undriven"),
                });
            }
        }
        Ok(())
    }

    /// Re-masters one instance to a pin-compatible cell (an ECO cell
    /// swap), returning the instance index.
    ///
    /// The new cell must exist in the library and expose *exactly* the
    /// pin names the current master does, so every `(pin, net)`
    /// connection — and therefore the whole net graph — is untouched.
    /// This is what keeps downstream incremental timing sound: a swap
    /// can change delays, slews, and pin loads, never connectivity.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNetlist`] if the instance or cell
    /// is unknown, or the pin names differ.
    pub fn swap_cell(
        &mut self,
        instance: &str,
        new_cell: &str,
        library: &Library,
    ) -> Result<usize, NetlistError> {
        let idx = self
            .instance_index(instance)
            .ok_or_else(|| NetlistError::InvalidNetlist {
                reason: format!("unknown instance `{instance}`"),
            })?;
        let cell = library
            .cell(new_cell)
            .ok_or_else(|| NetlistError::InvalidNetlist {
                reason: format!("unknown cell `{new_cell}`"),
            })?;
        let inst = &self.instances[idx];
        let mut connected: Vec<&str> = inst.connections.iter().map(|(p, _)| p.as_str()).collect();
        let mut pins: Vec<&str> = cell.pins().iter().map(|p| p.name.as_str()).collect();
        connected.sort_unstable();
        pins.sort_unstable();
        if connected != pins {
            return Err(NetlistError::InvalidNetlist {
                reason: format!(
                    "cannot swap `{instance}` ({}) to `{new_cell}`: pin names differ \
                     ({connected:?} vs {pins:?})",
                    inst.cell
                ),
            });
        }
        self.instances[idx].cell = new_cell.to_string();
        Ok(idx)
    }

    /// Circuit name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Primary inputs.
    #[must_use]
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Primary outputs.
    #[must_use]
    pub fn outputs(&self) -> &[String] {
        &self.outputs
    }

    /// The instances.
    #[must_use]
    pub fn instances(&self) -> &[MappedInstance] {
        &self.instances
    }

    /// An instance by name.
    #[must_use]
    pub fn instance(&self, name: &str) -> Option<&MappedInstance> {
        self.instance_index(name).map(|idx| &self.instances[idx])
    }

    /// The index of the instance named `name`: a binary search of a
    /// name-sorted index (4 bytes per instance) that the first call
    /// builds.
    #[must_use]
    pub fn instance_index(&self, name: &str) -> Option<usize> {
        let by_name = self.by_name.get_or_init(|| {
            let mut ids: Vec<u32> = (0..self.instances.len())
                .map(|idx| u32::try_from(idx).expect("instance count fits u32"))
                .collect();
            ids.sort_unstable_by(|&a, &b| {
                self.instances[a as usize]
                    .name
                    .cmp(&self.instances[b as usize].name)
            });
            ids
        });
        by_name
            .binary_search_by(|&id| self.instances[id as usize].name.as_str().cmp(name))
            .ok()
            .map(|k| by_name[k] as usize)
    }

    /// A process-unique id of this netlist's connectivity.
    /// [`MappedNetlist::new`] draws a fresh one, `Clone` copies it, and
    /// [`MappedNetlist::swap_cell`], the only mutator, keeps it, since it
    /// changes no connection. Two netlists with one stamp therefore have
    /// the same inputs, outputs, instances and `(pin, net)` connections,
    /// in the same order: comparing stamps proves in O(1) that an
    /// interned copy of the connectivity is still valid. Equality ignores
    /// the stamp.
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// For every net: the `(instance index, input pin)` sinks, keyed by net
    /// name. Used for load computation and timing-graph construction.
    #[must_use]
    pub fn net_sinks(&self, library: &Library) -> HashMap<String, Vec<(usize, String)>> {
        let mut sinks: HashMap<String, Vec<(usize, String)>> = HashMap::new();
        for (idx, inst) in self.instances.iter().enumerate() {
            let Some(cell) = library.cell(&inst.cell) else {
                continue;
            };
            for pin in cell.input_pins() {
                if let Some(net) = inst.net_of(&pin.name) {
                    sinks
                        .entry(net.to_string())
                        .or_default()
                        .push((idx, pin.name.clone()));
                }
            }
        }
        sinks
    }

    /// The driving `(instance index, output pin)` of every instance-driven
    /// net.
    #[must_use]
    pub fn net_drivers(&self, library: &Library) -> HashMap<String, (usize, String)> {
        let mut drivers = HashMap::new();
        for (idx, inst) in self.instances.iter().enumerate() {
            let Some(cell) = library.cell(&inst.cell) else {
                continue;
            };
            let out = &cell.output_pin().name;
            if let Some(net) = inst.net_of(out) {
                drivers.insert(net.to_string(), (idx, out.clone()));
            }
        }
        drivers
    }

    /// Cell-usage counts, for area/profile reporting.
    #[must_use]
    pub fn cell_usage(&self) -> HashMap<String, usize> {
        let mut usage: HashMap<String, usize> = HashMap::new();
        for inst in &self.instances {
            *usage.entry(inst.cell.clone()).or_default() += 1;
        }
        usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(name: &str, cell: &str, conns: &[(&str, &str)]) -> MappedInstance {
        MappedInstance {
            name: name.into(),
            cell: cell.into(),
            connections: conns
                .iter()
                .map(|(p, n)| (p.to_string(), n.to_string()))
                .collect(),
        }
    }

    fn lib() -> Library {
        Library::svt90()
    }

    #[test]
    fn valid_netlist_constructs() {
        let m = MappedNetlist::new(
            "t",
            vec!["a".into(), "b".into()],
            vec!["z".into()],
            vec![
                inst("u1", "NAND2X1", &[("A", "a"), ("B", "b"), ("Z", "n1")]),
                inst("u2", "INVX1", &[("A", "n1"), ("Z", "z")]),
            ],
            &lib(),
        )
        .unwrap();
        assert_eq!(m.instances().len(), 2);
        assert!(m.instance("u1").is_some());
        assert_eq!(m.cell_usage().get("INVX1"), Some(&1));
        let sinks = m.net_sinks(&lib());
        assert_eq!(sinks.get("n1").map(Vec::len), Some(1));
        let drivers = m.net_drivers(&lib());
        assert_eq!(drivers.get("z").map(|(i, _)| *i), Some(1));
    }

    #[test]
    fn unknown_cell_is_rejected() {
        let err = MappedNetlist::new(
            "t",
            vec!["a".into()],
            vec!["z".into()],
            vec![inst("u1", "MYSTERY", &[("A", "a"), ("Z", "z")])],
            &lib(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn unconnected_pin_is_rejected() {
        let err = MappedNetlist::new(
            "t",
            vec!["a".into()],
            vec!["z".into()],
            vec![inst("u1", "NAND2X1", &[("A", "a"), ("Z", "z")])],
            &lib(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn double_driver_is_rejected() {
        let err = MappedNetlist::new(
            "t",
            vec!["a".into()],
            vec!["z".into()],
            vec![
                inst("u1", "INVX1", &[("A", "a"), ("Z", "z")]),
                inst("u2", "INVX1", &[("A", "a"), ("Z", "z")]),
            ],
            &lib(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn undriven_load_is_rejected() {
        let err = MappedNetlist::new(
            "t",
            vec!["a".into()],
            vec!["z".into()],
            vec![inst("u1", "INVX1", &[("A", "ghost"), ("Z", "z")])],
            &lib(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn swap_cell_requires_pin_compatibility() {
        let library = lib();
        let mut m = MappedNetlist::new(
            "t",
            vec!["a".into()],
            vec!["z".into()],
            vec![inst("u1", "INVX1", &[("A", "a"), ("Z", "z")])],
            &library,
        )
        .unwrap();
        // INVX1 -> INVX2 shares pin names A/Z: allowed, connections kept.
        let idx = m.swap_cell("u1", "INVX2", &library).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(m.instances()[0].cell, "INVX2");
        assert_eq!(m.instances()[0].net_of("A"), Some("a"));
        m.validate(&library).expect("swap keeps the netlist valid");
        // NAND2X1 has pins A/B/Z: rejected, netlist untouched.
        assert!(m.swap_cell("u1", "NAND2X1", &library).is_err());
        assert_eq!(m.instances()[0].cell, "INVX2");
        // Unknown instance / cell.
        assert!(m.swap_cell("ghost", "INVX1", &library).is_err());
        assert!(m.swap_cell("u1", "GHOST", &library).is_err());
    }

    #[test]
    fn stamp_follows_connectivity_and_equality_ignores_it() {
        let library = lib();
        let build = || {
            MappedNetlist::new(
                "t",
                vec!["a".into(), "b".into()],
                vec!["z".into()],
                vec![
                    inst("u2", "NAND2X1", &[("A", "a"), ("B", "b"), ("Z", "n1")]),
                    inst("u1", "INVX1", &[("A", "n1"), ("Z", "z")]),
                ],
                &library,
            )
            .unwrap()
        };
        let m = build();
        let twin = build();
        assert_eq!(m, twin, "equal designs compare equal");
        assert_ne!(m.stamp(), twin.stamp(), "each construction is stamped anew");
        let mut copy = m.clone();
        copy.swap_cell("u1", "INVX2", &library).unwrap();
        assert_eq!(copy.stamp(), m.stamp(), "clone and swap keep the stamp");
        assert_ne!(copy, m);
        // The name index finds every instance, and nothing else.
        assert_eq!(m.instance_index("u2"), Some(0));
        assert_eq!(m.instance_index("u1"), Some(1));
        assert_eq!(m.instance_index("u3"), None);
        assert_eq!(copy.instance("u1").unwrap().cell, "INVX2");
    }
}
