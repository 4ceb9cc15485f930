package cluster

import (
	"sync"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/metrics"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/trace"
)

// PipelineConfig tunes the alert dedup/rate-limit pipeline in front of
// admission.
type PipelineConfig struct {
	// DedupWindow suppresses an alert for a flow that had one forwarded
	// less than a window ago, measured on the alerts' own virtual
	// DetectedAt clock. Zero disables deduplication.
	DedupWindow simtime.Time
	// Rate is the sustained forward rate in alerts per virtual second; the
	// token bucket refills on the DetectedAt clock. Zero disables rate
	// limiting.
	Rate float64
	// Burst is the token bucket capacity (default 1 when Rate > 0).
	Burst int
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Rate > 0 && c.Burst <= 0 {
		c.Burst = 1
	}
	return c
}

// PipelineStats is a snapshot of the pipeline's counters. Every received
// alert lands in exactly one of Deduped, RateLimited, or Forwarded.
type PipelineStats struct {
	// Received counts alerts offered to the pipeline.
	Received uint64 `json:"received"`
	// Deduped counts alerts suppressed as duplicates within the window.
	Deduped uint64 `json:"deduped"`
	// RateLimited counts alerts suppressed by the token bucket.
	RateLimited uint64 `json:"rate_limited"`
	// Forwarded counts alerts whose query was handed to the forward sink.
	Forwarded uint64 `json:"forwarded"`
}

// AlertPipeline sits between a testbed's alert log and the admission
// controller: it deduplicates alert storms (a congestion event makes every
// affected transfer raise near-identical alerts), rate-limits the survivors
// on the alerts' own virtual clock so suppression counts are deterministic
// for a replayed scenario, and forwards each survivor's contention query
// (queryFor). All methods are safe for concurrent use; the forward sink runs
// outside the pipeline's lock, so it may call Admission.Run (or the network)
// directly.
type AlertPipeline struct {
	cfg     PipelineConfig
	forward func(analyzer.Query)

	// Flight, when set, receives one instant span per offered alert under
	// the alert's derived diagnosis trace ID, so suppression decisions show
	// up in the same trace tree as the diagnosis they gated.
	Flight *trace.FlightRecorder

	mu         sync.Mutex
	lastSent   map[netsim.FlowKey]simtime.Time
	tokens     float64
	lastRefill simtime.Time
	primed     bool
	stats      PipelineStats
}

// NewAlertPipeline builds a pipeline whose surviving alerts' queries are
// delivered to forward (called synchronously, outside the pipeline lock).
func NewAlertPipeline(cfg PipelineConfig, forward func(analyzer.Query)) *AlertPipeline {
	return &AlertPipeline{
		cfg:      cfg.withDefaults(),
		forward:  forward,
		lastSent: make(map[netsim.FlowKey]simtime.Time),
	}
}

// Stats returns a snapshot of the counters.
func (p *AlertPipeline) Stats() PipelineStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Offer runs one alert through dedup and rate limiting; a survivor's query
// is forwarded before Offer returns true. Suppressed alerts return false.
func (p *AlertPipeline) Offer(a hostagent.Alert) bool {
	now := a.DetectedAt
	p.mu.Lock()
	p.stats.Received++
	if p.cfg.DedupWindow > 0 {
		if last, ok := p.lastSent[a.Flow]; ok && now >= last && now-last < p.cfg.DedupWindow {
			p.stats.Deduped++
			p.mu.Unlock()
			p.recordVerdict(a, "deduped")
			return false
		}
	}
	if p.cfg.Rate > 0 {
		if !p.primed {
			// The bucket starts full at the first alert's timestamp.
			p.tokens = float64(p.cfg.Burst)
			p.lastRefill = now
			p.primed = true
		} else if now > p.lastRefill {
			p.tokens += (now - p.lastRefill).Seconds() * p.cfg.Rate
			if max := float64(p.cfg.Burst); p.tokens > max {
				p.tokens = max
			}
			p.lastRefill = now
		}
		if p.tokens < 1 {
			p.stats.RateLimited++
			p.mu.Unlock()
			p.recordVerdict(a, "rate-limited")
			return false
		}
		p.tokens--
	}
	p.lastSent[a.Flow] = now
	p.stats.Forwarded++
	p.mu.Unlock()

	p.recordVerdict(a, "forwarded")
	if p.forward != nil {
		p.forward(queryFor(a))
	}
	return true
}

// queryFor maps an alert to the diagnosis it triggers: every alert is a
// throughput drop, so every alert asks who is stealing the bandwidth.
func queryFor(a hostagent.Alert) analyzer.Query {
	return analyzer.ContentionQuery{Alert: a}
}

// recordVerdict drops one instant span into the flight recorder under the
// trace ID the alert's diagnosis would use, so the pipeline's decision joins
// the diagnosis trace. Runs outside p.mu; the recorder has its own lock.
func (p *AlertPipeline) recordVerdict(a hostagent.Alert, verdict string) {
	if p.Flight == nil {
		return
	}
	p.Flight.Record(analyzer.TraceID(queryFor(a)), trace.Span{
		ID:     "pipe:" + verdict,
		Parent: "0",
		Name:   "alert-pipeline",
		Role:   "analyzer",
		Start:  a.DetectedAt,
		End:    a.DetectedAt,
		Attrs:  []trace.Attr{{Key: "verdict", Value: verdict}},
	})
}

// Register adds the pipeline's counter families to a registry (scrape-time
// reads of Stats, so the families stay deterministic for replayed
// scenarios).
func (p *AlertPipeline) Register(reg *metrics.Registry) {
	stat := func(pick func(PipelineStats) uint64) func(metrics.Emit) {
		return func(emit metrics.Emit) { emit(float64(pick(p.Stats()))) }
	}
	reg.CounterFunc("spd_alerts_received_total", "Alerts offered to the alert pipeline.", nil,
		stat(func(s PipelineStats) uint64 { return s.Received }))
	reg.CounterFunc("spd_alerts_deduped_total", "Alerts suppressed as duplicates within the dedup window.", nil,
		stat(func(s PipelineStats) uint64 { return s.Deduped }))
	reg.CounterFunc("spd_alerts_ratelimited_total", "Alerts suppressed by the virtual-time token bucket.", nil,
		stat(func(s PipelineStats) uint64 { return s.RateLimited }))
	reg.CounterFunc("spd_alerts_forwarded_total", "Alerts whose diagnosis query was forwarded toward admission.", nil,
		stat(func(s PipelineStats) uint64 { return s.Forwarded }))
}
