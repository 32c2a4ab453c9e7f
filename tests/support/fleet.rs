//! The reference model's live fleet: how calibration state ages under
//! explicit recalibrations and a [`DriftModel`], one install and one
//! epoch per change. The
//! [`ReferenceScheduler`](super::ReferenceScheduler) reads devices from
//! it and logs the events it returns; nothing here knows about jobs.

use qucp_device::{Calibration, CrosstalkModel, Device, DriftModel};
use qucp_runtime::{CalibrationFault, DeviceId, DeviceRegistry, Event, RuntimeError};

pub struct LiveFleet {
    registry: DeviceRegistry,
    ids: Vec<DeviceId>,
    drift: Option<Box<dyn DriftModel>>,
    /// Drift steps already applied, per device.
    steps: Vec<u64>,
}

impl LiveFleet {
    pub fn new(registry: DeviceRegistry, drift: Option<Box<dyn DriftModel>>) -> Self {
        LiveFleet {
            ids: registry.iter().map(|(id, _)| id).collect(),
            steps: vec![0; registry.len()],
            registry,
            drift,
        }
    }

    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// Device ids in registration order.
    pub fn ids(&self) -> &[DeviceId] {
        &self.ids
    }

    pub fn get(&self, d: DeviceId) -> &Device {
        self.registry.get(d)
    }

    /// Installs a validated snapshot, keeping the device's crosstalk;
    /// returns the new epoch and its event.
    pub fn recalibrate(
        &mut self,
        d: DeviceId,
        cal: Calibration,
    ) -> Result<(u64, Event), RuntimeError> {
        let xt = self.registry.get(d).crosstalk().clone();
        install(&mut self.registry, d, cal, xt)
    }

    /// Applies, device by device, every drift step scheduled up to
    /// `now`; returns one event per epoch bump and the bump count, or
    /// the fault of the last device a step poisoned. (`now` is taken
    /// as finite and within the per-advance step bound: both checks
    /// are unit-tested in production and modelled nowhere.)
    pub fn advance_drift(&mut self, now: f64) -> (Vec<Event>, Result<usize, RuntimeError>) {
        let mut events = Vec::new();
        let Some(model) = &self.drift else {
            return (events, Ok(0));
        };
        let target = model.steps_at(now);
        let mut fault = None;
        'devices: for (index, &id) in self.ids.iter().enumerate() {
            for step in self.steps[index] + 1..=target {
                let device = self.registry.get(id);
                let (mut cal, mut xt) = (device.calibration().clone(), device.crosstalk().clone());
                if !model.apply_step(step, index as u64, &mut cal, &mut xt) {
                    continue;
                }
                match install(&mut self.registry, id, cal, xt) {
                    Ok((_, event)) => events.push(event),
                    Err(err) => {
                        // The device stops just before the poisoned step.
                        fault = Some(err);
                        self.steps[index] = step - 1;
                        continue 'devices;
                    }
                }
            }
            self.steps[index] = self.steps[index].max(target);
        }
        let bumps = events.len();
        (events, fault.map_or(Ok(bumps), Err))
    }
}

/// The one way calibration state enters the fleet: validated, then
/// installed with an epoch bump.
fn install(
    registry: &mut DeviceRegistry,
    d: DeviceId,
    cal: Calibration,
    xt: CrosstalkModel,
) -> Result<(u64, Event), RuntimeError> {
    let device = registry.get(d);
    let fault = if cal.num_qubits() != device.num_qubits() {
        Some(CalibrationFault::QubitCountMismatch {
            expected: device.num_qubits(),
            got: cal.num_qubits(),
        })
    } else if !(cal.all_finite() && xt.all_finite()) {
        Some(CalibrationFault::NonFinite)
    } else if !cal.covers(device.topology()) {
        Some(CalibrationFault::MissingLinks)
    } else if !cal.in_range() {
        Some(CalibrationFault::OutOfRange)
    } else {
        None
    };
    let device = device.name().to_string();
    if let Some(fault) = fault {
        return Err(RuntimeError::InvalidCalibration { device, fault });
    }
    let epoch = registry.install(d, cal, xt);
    Ok((epoch, Event::DeviceRecalibrated { device, epoch }))
}
