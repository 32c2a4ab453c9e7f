//! The live fleet: explicit recalibrations, drift advances, and the
//! epoch-bump fanout both share.

use qucp_device::{Calibration, DriftEvent};

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
    /// fleet's "daily recalibration arrived" entry point.
    ///
    /// The snapshot is **validated before it can touch anything**: a
    /// snapshot with NaN/infinite entries, the wrong qubit count,
    /// missing link entries or an out-of-range value (an error rate
    /// outside `[0, 1]`, a negative duration or coherence time) is
    /// rejected with a typed error and the
    /// device, its epoch and the planning cache are left exactly as
    /// they were. On success the device's calibration epoch bumps, the
    /// device's cached planning probes and plans are dropped, an
    /// [`Event::DeviceRecalibrated`] is emitted, and — when a drift
    /// model is attached — the new snapshot becomes the baseline that
    /// drift-scheduled recalibration resets restore. Returns the new
    /// epoch.
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
        let dev = self.registry.get(device);
        let fault = if calibration.num_qubits() != dev.num_qubits() {
            Some(CalibrationFault::QubitCountMismatch {
                expected: dev.num_qubits(),
                got: calibration.num_qubits(),
            })
        } else if !calibration.all_finite() {
            Some(CalibrationFault::NonFinite)
        } else if !calibration.covers(dev.topology()) {
            Some(CalibrationFault::MissingLinks)
        } else if !calibration.in_range() {
            Some(CalibrationFault::OutOfRange)
        } else {
            None
        };
        if let Some(fault) = fault {
            return Err(RuntimeError::InvalidCalibration {
                device: dev.name().to_string(),
                fault,
            });
        }
        let name = dev.name().to_string();
        if let Some(baselines) = &mut self.baselines {
            baselines[device.index()].0 = calibration.clone();
        }
        let epoch = self.registry.recalibrate(device, calibration);
        self.bump_epoch(device.index(), name, epoch);
        Ok(epoch)
    }

    /// Advances the fleet's calibration drift to simulated time `now`
    /// (ns): for every device, applies each drift step the attached
    /// [`DriftModel`](crate::DriftModel) schedules between the last advance and `now` —
    /// [`DriftEvent::Drift`] steps perturb the calibration state,
    /// [`DriftEvent::Recalibrate`] steps restore the device's baseline
    /// snapshot. Each step that actually changes a device bumps its
    /// calibration epoch, drops its cached planning probes and plans
    /// and emits an [`Event::DeviceRecalibrated`]; no-op steps (zero-sigma walks, or
    /// resets of an undrifted device) leave epoch, cache and telemetry
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
    /// — the same
    /// validation gate [`Service::recalibrate`] applies to explicit
    /// snapshots: the offending step is rolled back (no epoch bump, no
    /// cache drop) and that device stops just before it, while earlier
    /// steps and other devices stand, so a fixed model can resume
    /// exactly where drift halted.
    pub fn advance_drift(&mut self, now: f64) -> Result<usize, RuntimeError> {
        if !now.is_finite() {
            return Err(RuntimeError::NonFiniteTime { value: now });
        }
        // Taken (not borrowed) so the loop below can mutate registry,
        // cache and event log while consulting the model.
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
        let mut fault: Option<RuntimeError> = None;
        'devices: for index in 0..self.registry.len() {
            let applied = self.drift_steps[index];
            if target <= applied {
                continue;
            }
            let id = DeviceId::from_index(index);
            for step in applied + 1..=target {
                let new_epoch = match model.event_at(step) {
                    // Applied against a scratch copy so a model that
                    // produces NaN/infinity or an out-of-range value can
                    // be rejected with the live state untouched — the
                    // same gates `recalibrate` applies to explicit
                    // snapshots.
                    DriftEvent::Drift => {
                        let mut poison = None;
                        let epoch = self.registry.mutate_calibration(id, |cal, xt| {
                            let (mut next_cal, mut next_xt) = (cal.clone(), xt.clone());
                            if !model.apply_step(step, index as u64, &mut next_cal, &mut next_xt) {
                                return None;
                            }
                            poison = if !(next_cal.all_finite() && next_xt.all_finite()) {
                                Some(CalibrationFault::NonFinite)
                            } else if !next_cal.in_range() {
                                Some(CalibrationFault::OutOfRange)
                            } else {
                                None
                            };
                            poison.is_none().then_some((next_cal, next_xt))
                        });
                        if let Some(poison) = poison {
                            fault = Some(RuntimeError::InvalidCalibration {
                                device: self.registry.device_at(index).name().to_string(),
                                fault: poison,
                            });
                            // Steps up to the poisoned one stand; the
                            // device stays at `step - 1` so a fixed
                            // model could resume exactly there.
                            self.drift_steps[index] = step - 1;
                            continue 'devices;
                        }
                        epoch
                    }
                    // Restore-by-clone only when the device actually
                    // drifted away from its baseline; the common
                    // nothing-changed reset costs two comparisons.
                    DriftEvent::Recalibrate => {
                        let (base_cal, base_xt) = &self
                            .baselines
                            .as_ref()
                            .expect("a drifting service always snapshots baselines at build")
                            [index];
                        self.registry.mutate_calibration(id, |cal, xt| {
                            (cal != base_cal || xt != base_xt)
                                .then(|| (base_cal.clone(), base_xt.clone()))
                        })
                    }
                };
                if let Some(epoch) = new_epoch {
                    // After a device's first bump of this advance its
                    // cache entries are gone and no dispatch can bring
                    // any back mid-advance: later drops find nothing.
                    let device = self.registry.device_at(index).name().to_string();
                    self.bump_epoch(index, device, epoch);
                    bumps += 1;
                }
            }
            self.drift_steps[index] = target;
        }
        self.drift = Some(model);
        match fault {
            Some(err) => Err(err),
            None => Ok(bumps),
        }
    }

    /// The epoch-bump fanout, shared by explicit recalibrations and
    /// drift steps: the device's cached probes and plans are dropped —
    /// they were computed against a calibration that no longer exists —
    /// with the shapes only their keys still held, and the bump is
    /// logged.
    fn bump_epoch(&mut self, device_index: usize, device_name: String, epoch: u64) {
        if self.route_cache.invalidate_device(device_index) > 0 {
            self.shapes.sweep();
        }
        self.emit(Event::DeviceRecalibrated {
            device: device_name,
            epoch,
        });
    }
}
