//! The reference model's live fleet: how calibration state ages under
//! explicit recalibrations and a [`DriftModel`], one epoch per change.
//! The [`ReferenceScheduler`](super::ReferenceScheduler) reads devices
//! from it and logs the events it returns; nothing here knows about
//! jobs.

use qucp_device::{Calibration, CrosstalkModel, Device, DriftEvent, DriftModel};
use qucp_runtime::{CalibrationFault, DeviceId, DeviceRegistry, Event, RuntimeError};

pub struct LiveFleet {
    registry: DeviceRegistry,
    ids: Vec<DeviceId>,
    /// What a drift-scheduled reset restores: the build-time snapshot,
    /// or the latest explicit recalibration.
    baselines: Vec<(Calibration, CrosstalkModel)>,
    drift: Option<Box<dyn DriftModel>>,
    /// Drift steps already applied, per device.
    steps: Vec<u64>,
}

impl LiveFleet {
    pub fn new(registry: DeviceRegistry, drift: Option<Box<dyn DriftModel>>) -> Self {
        let snapshot = |d: &Device| (d.calibration().clone(), d.crosstalk().clone());
        LiveFleet {
            ids: registry.iter().map(|(id, _)| id).collect(),
            baselines: registry.iter().map(|(_, d)| snapshot(d)).collect(),
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

    /// Installs a validated snapshot; returns the new epoch and its
    /// event.
    pub fn recalibrate(
        &mut self,
        d: DeviceId,
        cal: Calibration,
    ) -> Result<(u64, Event), RuntimeError> {
        let device = self.registry.get(d);
        let fault = if cal.num_qubits() != device.num_qubits() {
            Some(CalibrationFault::QubitCountMismatch {
                expected: device.num_qubits(),
                got: cal.num_qubits(),
            })
        } else if !cal.all_finite() {
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
        self.baselines[d.index()].0 = cal.clone();
        let epoch = self.registry.recalibrate(d, cal);
        Ok((epoch, Event::DeviceRecalibrated { device, epoch }))
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
            let device = self.registry.get(id).name().to_string();
            for step in self.steps[index] + 1..=target {
                let mut poison = None;
                let epoch = match model.event_at(step) {
                    // Applied to a scratch copy, so a step that writes
                    // NaN, infinity or an out-of-range value is rolled
                    // back.
                    DriftEvent::Drift => self.registry.mutate_calibration(id, |cal, xt| {
                        let (mut next_cal, mut next_xt) = (cal.clone(), xt.clone());
                        if !model.apply_step(step, index as u64, &mut next_cal, &mut next_xt) {
                            return None;
                        }
                        if !(next_cal.all_finite() && next_xt.all_finite()) {
                            poison = Some(CalibrationFault::NonFinite);
                        } else if !next_cal.in_range() {
                            poison = Some(CalibrationFault::OutOfRange);
                        }
                        poison.is_none().then_some((next_cal, next_xt))
                    }),
                    DriftEvent::Recalibrate => {
                        let (base_cal, base_xt) = &self.baselines[index];
                        self.registry.mutate_calibration(id, |cal, xt| {
                            let drifted = cal != base_cal || xt != base_xt;
                            drifted.then(|| (base_cal.clone(), base_xt.clone()))
                        })
                    }
                };
                if let Some(fault_kind) = poison {
                    // The device stops just before the poisoned step.
                    fault = Some(RuntimeError::InvalidCalibration {
                        device,
                        fault: fault_kind,
                    });
                    self.steps[index] = step - 1;
                    continue 'devices;
                }
                let device = device.clone();
                events.extend(epoch.map(|epoch| Event::DeviceRecalibrated { device, epoch }));
            }
            self.steps[index] = self.steps[index].max(target);
        }
        let bumps = events.len();
        (events, fault.map_or(Ok(bumps), Err))
    }
}
