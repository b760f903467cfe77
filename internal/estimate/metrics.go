package estimate

import (
	"io"

	"repro/internal/prom"
)

// WriteMetrics renders the estimator's ingest and fit health in Prometheus
// text format. Every per-station family emits one sample per model station
// from the first scrape, so dashboards and the exposition lint see stable
// label sets; fit residuals appear once a snapshot exists. A nil receiver is
// valid and renders the same families with no per-station series — the
// server scrapes it before any estimator has been registered.
func (e *Estimator) WriteMetrics(w io.Writer) error {
	var stations []StationHealth
	if e != nil {
		stations, _ = e.Health()
	}
	p := prom.NewWriter(w)
	p.Family("solverd_estimate_samples_total", "counter", "Samples accepted by the demand estimator per station.")
	for _, st := range stations {
		p.Uint("solverd_estimate_samples_total", st.Accepted, "station", st.Name)
	}
	p.Family("solverd_estimate_samples_rejected_total", "counter", "Samples rejected by the outlier filter per station.")
	for _, st := range stations {
		p.Uint("solverd_estimate_samples_rejected_total", st.Rejected, "station", st.Name)
	}
	p.Family("solverd_estimate_cell_resets_total", "counter", "Regime-shift cell resets per station.")
	for _, st := range stations {
		p.Uint("solverd_estimate_cell_resets_total", st.Resets, "station", st.Name)
	}
	p.Family("solverd_estimate_cells", "gauge", "Distinct concurrency cells currently retained per station.")
	for _, st := range stations {
		p.Int("solverd_estimate_cells", int64(st.Cells), "station", st.Name)
	}
	p.Family("solverd_estimate_fit_ready_cells", "gauge", "Cells with enough accepted samples to enter a fit, per station.")
	for _, st := range stations {
		p.Int("solverd_estimate_fit_ready_cells", int64(st.FitReady), "station", st.Name)
	}
	p.Family("solverd_estimate_fit_residual", "gauge", "RMS relative error of the published demand curve against the smoothed cell means, per station.")
	var version, fits uint64
	if e != nil {
		if snap := e.Snapshot(); snap != nil {
			for _, st := range snap.Stations {
				p.Float("solverd_estimate_fit_residual", st.Residual, "station", st.Name)
			}
		}
		version, fits = e.Version(), e.Fits()
	}
	p.Gauge("solverd_estimate_snapshot_version", "Version of the published demand-curve snapshot (0 before the first fit).", int64(version))
	p.Counter("solverd_estimate_fits_total", "Successful demand-curve fits.", fits)
	p.Blank()
	return p.Err()
}

// WriteMetrics renders the controller's re-estimation trigger counter; every
// reason in TriggerReasons is always exposed. A nil receiver renders zeros.
func (c *Controller) WriteMetrics(w io.Writer) error {
	var triggers map[string]uint64
	if c != nil {
		triggers = c.Triggers()
	}
	p := prom.NewWriter(w)
	p.Family("solverd_estimate_reestimate_triggers_total", "counter", "Re-estimations triggered, by reason.")
	for _, r := range TriggerReasons {
		p.Uint("solverd_estimate_reestimate_triggers_total", triggers[r], "reason", r)
	}
	p.Blank()
	return p.Err()
}
