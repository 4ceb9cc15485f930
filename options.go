package switchpointer

// Option configures a testbed assembled by New. Options compose left to
// right over the zero Options value, whose unset fields select the paper's
// defaults (α=10 ms, k=3, ε=α, FIFO queues, calibrated cost model).
type Option func(*Options)

// WithEpoch sets the epoch size α.
func WithEpoch(alpha Time) Option {
	return func(o *Options) { o.Alpha = alpha }
}

// WithLevels sets k, the number of pointer hierarchy levels.
func WithLevels(k int) Option {
	return func(o *Options) { o.K = k }
}

// WithDriftBound sets ε, the network-wide clock-drift bound.
func WithDriftBound(eps Time) Option {
	return func(o *Options) { o.Eps = eps }
}

// WithMaxHopDelay sets Δ, the maximum one-hop delay assumed by epoch
// extrapolation.
func WithMaxHopDelay(delta Time) Option {
	return func(o *Options) { o.Delta = delta }
}

// WithQueueDiscipline selects the switch output-queue discipline
// (QueueFIFO or QueuePriority).
func WithQueueDiscipline(q QueueKind) Option {
	return func(o *Options) { o.Queue = q }
}

// WithHeaderMode selects commodity double-tagging or INT telemetry
// embedding.
func WithHeaderMode(m HeaderMode) Option {
	return func(o *Options) { o.Mode = m }
}

// WithSwitchBuffer sizes each switch output queue in bytes.
func WithSwitchBuffer(bytes int) Option {
	return func(o *Options) { o.SwitchBufBytes = bytes }
}

// WithCostModel sets the analyzer's RPC cost model.
func WithCostModel(c CostModel) Option {
	return func(o *Options) { o.Cost = c }
}

// WithHostConfig tunes the host agents' trigger engines.
func WithHostConfig(c HostConfig) Option {
	return func(o *Options) { o.HostCfg = c }
}

// WithRuleUpdateInterval models the commodity epoch-rule floor (§4.1.3).
func WithRuleUpdateInterval(d Time) Option {
	return func(o *Options) { o.RuleUpdateInterval = d }
}

// WithPointerBackend selects the per-slot pointer-set implementation on
// every switch: PointerAdaptive (default), PointerDense, or PointerBloom.
func WithPointerBackend(be PointerBackend) Option {
	return func(o *Options) { o.PointerBackend = be }
}

// WithPointerBloom tunes the bloom backend's per-slot filter (bits and hash
// count; zero selects 16384/4). Only valid with WithPointerBackend(
// PointerBloom) — other backends reject the knobs as inert.
func WithPointerBloom(bits, hashes int) Option {
	return func(o *Options) {
		o.PointerBloomBits = bits
		o.PointerBloomHashes = hashes
	}
}

// WithClockSeed drives deterministic switch clock-offset assignment.
func WithClockSeed(seed int64) Option {
	return func(o *Options) { o.ClockSeed = seed }
}
