package ingest

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/wasm"
)

// Metrics are the ingest pipeline's operational counters, registered on
// the shared registry the server exposes.
type Metrics struct {
	// Binaries counts every ingested binary, whatever the outcome.
	Binaries *metrics.Counter
	// OK / Degraded / Rejected split binaries by outcome: clean parse,
	// parse needing tolerance, unusable header.
	OK       *metrics.Counter
	Degraded *metrics.Counter
	Rejected *metrics.Counter
	// SectionDiags counts section diagnostics by status.
	SectionDiags map[wasm.SectionStatus]*metrics.Counter
	// Seconds is the per-binary ingest latency (load + predict + score).
	Seconds *metrics.Histogram
	// Reused counts signature elements answered from Dir's prediction
	// memo instead of decoded: the duplicate share of a crawl.
	Reused *metrics.Counter
}

// NewMetrics registers the ingest metrics on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Binaries: r.NewCounter("snowwhite_ingest_binaries_total",
			"Binaries ingested, any outcome."),
		OK: r.NewCounter("snowwhite_ingest_binaries_ok_total",
			"Binaries that parsed cleanly."),
		Degraded: r.NewCounter("snowwhite_ingest_binaries_degraded_total",
			"Binaries loaded with section diagnostics (tolerance applied)."),
		Rejected: r.NewCounter("snowwhite_ingest_binaries_rejected_total",
			"Binaries rejected outright (bad magic or version)."),
		SectionDiags: map[wasm.SectionStatus]*metrics.Counter{
			wasm.SectionUnknown: r.NewCounter("snowwhite_ingest_sections_unknown_total",
				"Sections skipped for an unknown id."),
			wasm.SectionOutOfOrder: r.NewCounter("snowwhite_ingest_sections_out_of_order_total",
				"Sections parsed despite ordering violations."),
			wasm.SectionMalformed: r.NewCounter("snowwhite_ingest_sections_malformed_total",
				"Sections (or code entries) dropped as malformed."),
			wasm.SectionTruncated: r.NewCounter("snowwhite_ingest_sections_truncated_total",
				"Sections cut off by a truncated binary."),
		},
		Seconds: r.NewHistogram("snowwhite_ingest_binary_seconds",
			"Per-binary ingest latency in seconds.", nil),
		Reused: r.NewCounter("snowwhite_ingest_elements_reused_total",
			"Signature elements whose predictions a directory run reused from an identical earlier query instead of decoding."),
	}
}

// reused records n signature elements answered without a decode.
func (im *Metrics) reused(n int) {
	if im == nil || n == 0 {
		return
	}
	im.Reused.Add(int64(n))
}

// observe records one finished binary. Nil receivers are the common
// unmetered path (tests, the fuzz target).
func (im *Metrics) observe(rep *Report, start time.Time) {
	if im == nil {
		return
	}
	im.Binaries.Inc()
	switch {
	case rep.Error != "":
		im.Rejected.Inc()
	case rep.Degraded():
		im.Degraded.Inc()
	default:
		im.OK.Inc()
	}
	for _, s := range rep.Sections {
		if c := im.SectionDiags[wasm.SectionStatus(s.Status)]; c != nil {
			c.Inc()
		}
	}
	im.Seconds.ObserveSince(start)
}
