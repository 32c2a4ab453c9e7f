//! The live fleet: explicit recalibrations and drift advances, and the
//! one validated install both go through.

use std::sync::Arc;

use qucp_device::{Calibration, CrosstalkModel};

use super::Service;
use crate::error::{CalibrationFault, RuntimeError};
use crate::event::Event;
use crate::registry::DeviceId;

/// The most drift steps one [`Service::advance_drift`] call may apply
/// per device. A fleet that drifts hourly stays under this bound for
/// over a decade of simulated time per advance; hitting it almost
/// always means a clock-unit mismatch (seconds fed to a nanosecond
/// interval) or a degenerate interval, so the advance is refused with
/// [`RuntimeError::DriftHorizonTooFar`] instead of looping — and never
/// silently truncated, because skipping steps would fork the
/// deterministic noise trajectory.
pub const MAX_DRIFT_STEPS_PER_ADVANCE: u64 = 100_000;

impl Service {
    /// A device's current calibration epoch (see
    /// [`DeviceRegistry::epoch`](crate::DeviceRegistry::epoch)).
    pub fn device_epoch(&self, device: DeviceId) -> u64 {
        self.registry.epoch(device)
    }

    /// Installs a fresh calibration snapshot on a device — the live
    /// fleet's "daily recalibration arrived" entry point. The device
    /// keeps its crosstalk ground truth.
    ///
    /// The snapshot is **validated before it can touch anything**: a
    /// snapshot with NaN/infinite entries, the wrong qubit count,
    /// missing link entries or an out-of-range value (an error rate
    /// outside `[0, 1]`, a negative duration or coherence time) is
    /// rejected with a typed error and the device, its epoch and the
    /// planning cache are left exactly as they were. On success a new
    /// device replaces the old one, its calibration epoch bumps, its
    /// cached planning probes and plans are dropped and an
    /// [`Event::DeviceRecalibrated`] is emitted. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidCalibration`] with the disqualifying
    /// [`CalibrationFault`].
    ///
    /// # Panics
    ///
    /// Panics if `device` came from a different registry and is out of
    /// range.
    pub fn recalibrate(
        &mut self,
        device: DeviceId,
        calibration: Calibration,
    ) -> Result<u64, RuntimeError> {
        let crosstalk = self.registry.get(device).crosstalk().clone();
        self.install(device, calibration, crosstalk)
    }

    /// Advances the fleet's calibration drift to simulated time `now`
    /// (ns): for every device, applies each drift step the attached
    /// [`DriftModel`](crate::DriftModel) schedules between the last
    /// advance and `now`. Each step that actually changes a device is
    /// installed like a [`Service::recalibrate`] — a new device, an
    /// epoch bump, its cached planning probes and plans dropped, an
    /// [`Event::DeviceRecalibrated`]; a no-op step (a zero-sigma walk)
    /// installs nothing and leaves epoch, cache and telemetry
    /// untouched, so a zero-drift service stays bit-for-bit a frozen
    /// one. Returns the number of epoch bumps.
    ///
    /// Drift is advanced **explicitly**, never implicitly by
    /// [`Service::tick`] — [`Service::run_until_drained`] jumps to an
    /// infinite horizon, which is a fine dispatch bound but not a
    /// meaningful drift time. Interleave `advance_drift(t)` with
    /// `tick(t)` to co-evolve queue and noise; time never runs
    /// backwards (an earlier `now` than a previous advance is a
    /// no-op). Without an attached model this is a no-op returning 0.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonFiniteTime`] unless `now` is finite;
    /// [`RuntimeError::DriftHorizonTooFar`] when the advance would
    /// schedule more than [`MAX_DRIFT_STEPS_PER_ADVANCE`] steps per
    /// device (a mismatched clock unit or a degenerate interval —
    /// every step must actually run or the noise trajectory would
    /// fork, so runaway advances are refused, not truncated; state is
    /// untouched). [`RuntimeError::InvalidCalibration`] when a
    /// misbehaving model produces NaN/infinite or out-of-range values
    /// — the validation [`Service::recalibrate`] applies, since both
    /// install through it: the offending step is not installed and
    /// that device stops just before it, while earlier steps and other
    /// devices stand, so a fixed model can resume exactly where drift
    /// halted.
    pub fn advance_drift(&mut self, now: f64) -> Result<usize, RuntimeError> {
        if !now.is_finite() {
            return Err(RuntimeError::NonFiniteTime { value: now });
        }
        // Taken (not borrowed) so the loop below can install devices,
        // drop cache entries and log events while consulting the model.
        let Some(model) = self.drift.take() else {
            return Ok(0);
        };
        let target = model.steps_at(now);
        let applied_min = self.drift_steps.iter().copied().min().unwrap_or(0);
        if target.saturating_sub(applied_min) > MAX_DRIFT_STEPS_PER_ADVANCE {
            self.drift = Some(model);
            return Err(RuntimeError::DriftHorizonTooFar {
                steps: target - applied_min,
                max: MAX_DRIFT_STEPS_PER_ADVANCE,
            });
        }
        let mut bumps = 0usize;
        let mut fault = None;
        for index in 0..self.registry.len() {
            let id = DeviceId::from_index(index);
            let mut step = self.drift_steps[index];
            while step < target {
                step += 1;
                // Stepped on copies: the installed device is a new
                // value, and a step that changes nothing installs none.
                let device = self.registry.get(id);
                let (mut cal, mut xt) = (device.calibration().clone(), device.crosstalk().clone());
                if !model.apply_step(step, index as u64, &mut cal, &mut xt) {
                    continue;
                }
                if let Err(err) = self.install(id, cal, xt) {
                    // The device stays at `step - 1` so a fixed model
                    // could resume exactly there.
                    fault = Some(err);
                    step -= 1;
                    break;
                }
                bumps += 1;
            }
            self.drift_steps[index] = step;
        }
        self.drift = Some(model);
        fault.map_or(Ok(bumps), Err)
    }

    /// The one way calibration state enters the fleet, shared by
    /// [`Service::recalibrate`] and every drift step: validates the
    /// state — qubit count, finiteness (crosstalk included), link
    /// coverage, range, in that order — then installs it as a new
    /// device, drops the device's cached probes and plans (computed
    /// against a calibration that no longer exists) with the shapes
    /// only their keys still held, and logs the bump. A rejected state
    /// touches nothing.
    fn install(
        &mut self,
        device: DeviceId,
        calibration: Calibration,
        crosstalk: CrosstalkModel,
    ) -> Result<u64, RuntimeError> {
        let dev = self.registry.get(device);
        let fault = if calibration.num_qubits() != dev.num_qubits() {
            Some(CalibrationFault::QubitCountMismatch {
                expected: dev.num_qubits(),
                got: calibration.num_qubits(),
            })
        } else if !(calibration.all_finite() && crosstalk.all_finite()) {
            Some(CalibrationFault::NonFinite)
        } else if !calibration.covers(dev.topology()) {
            Some(CalibrationFault::MissingLinks)
        } else if !calibration.in_range() {
            Some(CalibrationFault::OutOfRange)
        } else {
            None
        };
        let name = Arc::clone(dev.shared_name());
        if let Some(fault) = fault {
            return Err(RuntimeError::InvalidCalibration {
                device: name.to_string(),
                fault,
            });
        }
        let epoch = self.registry.install(device, calibration, crosstalk);
        if self.route_cache.invalidate_device(device.index()) > 0 {
            self.shapes.sweep();
        }
        self.log.push(Event::DeviceRecalibrated {
            device: name,
            epoch,
        });
        Ok(epoch)
    }
}
